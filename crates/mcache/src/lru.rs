//! Per-class LRU lists (`items.c`): doubly-linked lists threaded through
//! the items' header words, used for eviction and for the `item_update`
//! re-positioning that memcached rate-limits to once per 60 seconds.

use tm::{Abort, TCell, Word};
use tmstd::ByteAccess;

use crate::ctx::Ctx;
use crate::item::{decode_opt, encode_opt, ItemHandle};
use crate::slabs::SlabArena;

/// One slab class's LRU list. Head = most recent, tail = eviction victim.
#[derive(Debug, Default)]
pub struct LruList {
    head: TCell<u64>,
    tail: TCell<u64>,
    count: TCell<u64>,
}

impl LruList {
    /// Creates an empty list.
    pub fn new() -> Self {
        LruList::default()
    }

    /// Number of linked items.
    pub fn len<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<u64, Abort> {
        ctx.get_word(self.count.word())
    }

    /// Whether the list is empty.
    pub fn is_empty<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<bool, Abort> {
        Ok(self.len(ctx)? == 0)
    }

    /// The current eviction candidate (oldest item).
    pub fn tail<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<Option<ItemHandle>, Abort> {
        Ok(decode_opt(ctx.get_word(self.tail.word())?))
    }

    /// The most recently used item.
    pub fn head<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<Option<ItemHandle>, Abort> {
        Ok(decode_opt(ctx.get_word(self.head.word())?))
    }

    /// Links `h` at the head (`item_link_q`).
    pub fn link_head<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        arena: &'e SlabArena,
        h: ItemHandle,
    ) -> Result<(), Abort> {
        let it = arena.resolve(h);
        let old_head = decode_opt(ctx.get_word(self.head.word())?);
        it.set_lru_prev(ctx, None)?;
        it.set_lru_next(ctx, old_head)?;
        match old_head {
            Some(oh) => arena.resolve(oh).set_lru_prev(ctx, Some(h))?,
            None => ctx.put_word(self.tail.word(), h.to_word())?,
        }
        ctx.put_word(self.head.word(), h.to_word())?;
        let n = ctx.get_word(self.count.word())?;
        ctx.put_word(self.count.word(), n + 1)?;
        Ok(())
    }

    /// Sets the ends and the length of a list whose items start-up
    /// recovery has already chained through their LRU words, oldest
    /// (`tail`) to newest (`head`).
    pub(crate) fn set_loaded<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        head: Option<ItemHandle>,
        tail: Option<ItemHandle>,
        count: u64,
    ) -> Result<(), Abort> {
        ctx.put_word(self.head.word(), encode_opt(head))?;
        ctx.put_word(self.tail.word(), encode_opt(tail))?;
        ctx.put_word(self.count.word(), count)
    }

    /// Unlinks `h` from wherever it is (`item_unlink_q`).
    pub fn unlink<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        arena: &'e SlabArena,
        h: ItemHandle,
    ) -> Result<(), Abort> {
        let it = arena.resolve(h);
        let prev = it.lru_prev(ctx)?;
        let next = it.lru_next(ctx)?;
        match prev {
            Some(p) => arena.resolve(p).set_lru_next(ctx, next)?,
            None => ctx.put_word(self.head.word(), encode_opt(next))?,
        }
        match next {
            Some(n) => arena.resolve(n).set_lru_prev(ctx, prev)?,
            None => ctx.put_word(self.tail.word(), encode_opt(prev))?,
        }
        it.set_lru_prev(ctx, None)?;
        it.set_lru_next(ctx, None)?;
        let n = ctx.get_word(self.count.word())?;
        ctx.put_word(self.count.word(), n.saturating_sub(1))?;
        Ok(())
    }

    /// Moves `h` to the head (`do_item_update`'s unlink+link pair).
    pub fn bump<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        arena: &'e SlabArena,
        h: ItemHandle,
    ) -> Result<(), Abort> {
        self.unlink(ctx, arena, h)?;
        self.link_head(ctx, arena, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Branch;
    use crate::slabs::SlabConfig;

    fn setup() -> (SlabArena, LruList) {
        (
            SlabArena::new(SlabConfig {
                mem_limit: 64 << 10,
                page_size: 16 << 10,
                chunk_min: 96,
                growth_factor: 2.0,
            }),
            LruList::new(),
        )
    }

    fn alloc(arena: &SlabArena) -> ItemHandle {
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        arena.alloc_from(&mut ctx, &p, 0).unwrap().unwrap()
    }

    #[test]
    fn link_order_is_mru_first() {
        let (arena, lru) = setup();
        let mut ctx = Ctx::Direct;
        let a = alloc(&arena);
        let b = alloc(&arena);
        let c = alloc(&arena);
        lru.link_head(&mut ctx, &arena, a).unwrap();
        lru.link_head(&mut ctx, &arena, b).unwrap();
        lru.link_head(&mut ctx, &arena, c).unwrap();
        assert_eq!(lru.head(&mut ctx).unwrap(), Some(c));
        assert_eq!(lru.tail(&mut ctx).unwrap(), Some(a));
        assert_eq!(lru.len(&mut ctx).unwrap(), 3);
    }

    #[test]
    fn unlink_middle_and_ends() {
        let (arena, lru) = setup();
        let mut ctx = Ctx::Direct;
        let a = alloc(&arena);
        let b = alloc(&arena);
        let c = alloc(&arena);
        for h in [a, b, c] {
            lru.link_head(&mut ctx, &arena, h).unwrap();
        }
        // order: c b a
        lru.unlink(&mut ctx, &arena, b).unwrap();
        assert_eq!(lru.head(&mut ctx).unwrap(), Some(c));
        assert_eq!(lru.tail(&mut ctx).unwrap(), Some(a));
        lru.unlink(&mut ctx, &arena, c).unwrap();
        assert_eq!(lru.head(&mut ctx).unwrap(), Some(a));
        assert_eq!(lru.tail(&mut ctx).unwrap(), Some(a));
        lru.unlink(&mut ctx, &arena, a).unwrap();
        assert!(lru.is_empty(&mut ctx).unwrap());
        assert_eq!(lru.head(&mut ctx).unwrap(), None);
        assert_eq!(lru.tail(&mut ctx).unwrap(), None);
    }

    #[test]
    fn bump_moves_to_head() {
        let (arena, lru) = setup();
        let mut ctx = Ctx::Direct;
        let a = alloc(&arena);
        let b = alloc(&arena);
        lru.link_head(&mut ctx, &arena, a).unwrap();
        lru.link_head(&mut ctx, &arena, b).unwrap();
        // order: b a ; bump a → a b
        lru.bump(&mut ctx, &arena, a).unwrap();
        assert_eq!(lru.head(&mut ctx).unwrap(), Some(a));
        assert_eq!(lru.tail(&mut ctx).unwrap(), Some(b));
        assert_eq!(lru.len(&mut ctx).unwrap(), 2);
    }

    #[test]
    fn walk_is_consistent_both_ways() {
        let (arena, lru) = setup();
        let mut ctx = Ctx::Direct;
        let items: Vec<_> = (0..10).map(|_| alloc(&arena)).collect();
        for &h in &items {
            lru.link_head(&mut ctx, &arena, h).unwrap();
        }
        // Forward walk from head.
        let mut fwd = Vec::new();
        let mut cur = lru.head(&mut ctx).unwrap();
        while let Some(h) = cur {
            fwd.push(h);
            cur = arena.resolve(h).lru_next(&mut ctx).unwrap();
        }
        // Backward walk from tail.
        let mut bwd = Vec::new();
        let mut cur = lru.tail(&mut ctx).unwrap();
        while let Some(h) = cur {
            bwd.push(h);
            cur = arena.resolve(h).lru_prev(&mut ctx).unwrap();
        }
        bwd.reverse();
        assert_eq!(fwd, bwd);
        assert_eq!(fwd.len(), 10);
    }
}
