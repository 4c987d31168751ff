//! Item layout: memcached's `item` struct, laid out in slab memory.
//!
//! An item occupies one chunk of a slab page. The header is nine 64-bit
//! words (chain pointer, LRU pointers, refcount, flags, times, sizes, CAS,
//! client flags) followed by the key bytes, the pre-rendered response
//! *suffix* (`" <flags> <nbytes>\r\n"`, built with `snprintf` at store
//! time — one of the paper's libc serialization sites), and the value
//! bytes. All fields live in [`TBytes`] words so every branch — locked,
//! privatized, or transactional — can address the same memory.

use tm::{Abort, TBytes, TWord, Word};
use tmstd::ByteAccess;

use crate::ctx::Ctx;
use crate::policy::{Category, Policy};

/// Header words per item.
pub const HDR_WORDS: usize = 9;
/// Header bytes per item.
pub const HDR_BYTES: usize = HDR_WORDS * 8;
/// Longest rendered suffix (`" <u32> <u32>\r\n"`).
pub const SUFFIX_MAX: usize = 24;

/// `it_flags` bit: the item is linked into the hash table and LRU.
pub const ITEM_LINKED: u64 = 1;
/// `it_flags` bit: the chunk is on a slab free list.
pub const ITEM_SLABBED: u64 = 2;
/// `it_flags` bit: the item has been fetched at least once.
pub const ITEM_FETCHED: u64 = 4;

const W_HNEXT: usize = 0;
const W_LRU_NEXT: usize = 1;
const W_LRU_PREV: usize = 2;
const W_REFCOUNT: usize = 3;
const W_FLAGS: usize = 4;
const W_TIMES: usize = 5;
const W_SIZES: usize = 6;
const W_CAS: usize = 7;
const W_CFLAGS: usize = 8;

/// A packed reference to one chunk: slab class, page index within the
/// arena, and chunk index within the page. The all-zero word is "null",
/// so handles pack as `value + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ItemHandle {
    /// Slab class id.
    pub class: u8,
    /// Global page index in the arena.
    pub page: u32,
    /// Chunk index within the page.
    pub chunk: u16,
}

impl Word for ItemHandle {
    fn to_word(self) -> u64 {
        (((self.class as u64) << 48) | ((self.page as u64) << 16) | self.chunk as u64) + 1
    }
    fn from_word(w: u64) -> Self {
        let w = w.checked_sub(1).expect("decoded a null ItemHandle");
        ItemHandle {
            class: (w >> 48) as u8,
            page: (w >> 16) as u32,
            chunk: w as u16,
        }
    }
}

/// Reads an `Option<ItemHandle>` word (0 encodes `None`).
pub fn decode_opt(w: u64) -> Option<ItemHandle> {
    if w == 0 {
        None
    } else {
        Some(ItemHandle::from_word(w))
    }
}

/// Encodes an `Option<ItemHandle>` word.
pub fn encode_opt(h: Option<ItemHandle>) -> u64 {
    h.map_or(0, ItemHandle::to_word)
}

/// A resolved item: the storage holding it plus its chunk's bounds.
#[derive(Clone, Copy, Debug)]
pub struct ItemRef<'e> {
    /// The backing storage: the arena's slab pool, every page back to back.
    pub pool: &'e TBytes,
    /// First header word index within `pool`.
    pub word0: usize,
    /// First byte offset within `pool`.
    pub byte0: usize,
    /// One past the chunk's last byte within `pool`. The next byte belongs
    /// to the next chunk, possibly on another class's page; debug builds
    /// assert that no access reaches it.
    pub end: usize,
    /// The handle this reference resolves.
    pub handle: ItemHandle,
}

/// Decoded size word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ItemSizes {
    /// Key length in bytes.
    pub nkey: u8,
    /// Rendered suffix length in bytes.
    pub nsuffix: u8,
    /// Value length in bytes.
    pub nbytes: u32,
}

impl ItemSizes {
    fn pack(self) -> u64 {
        self.nkey as u64 | ((self.nsuffix as u64) << 8) | ((self.nbytes as u64) << 16)
    }
    fn unpack(w: u64) -> Self {
        ItemSizes {
            nkey: w as u8,
            nsuffix: (w >> 8) as u8,
            nbytes: (w >> 16) as u32,
        }
    }
    /// Total bytes the item occupies in its chunk.
    pub fn total(&self) -> usize {
        HDR_BYTES + self.nkey as usize + self.nsuffix as usize + self.nbytes as usize
    }
}

impl<'e> ItemRef<'e> {
    /// The item in the `chunk_size`-byte chunk at byte `byte0` of `pool`.
    pub fn new(pool: &'e TBytes, byte0: usize, chunk_size: usize, handle: ItemHandle) -> Self {
        ItemRef {
            pool,
            word0: byte0 / 8,
            byte0,
            end: byte0 + chunk_size,
            handle,
        }
    }

    /// `off`, once debug builds have checked that the `len` bytes from it
    /// stay inside this item's chunk.
    pub fn in_chunk(&self, off: usize, len: usize) -> usize {
        debug_assert!(
            self.byte0 <= off && off + len <= self.end,
            "item bytes {off}..{} outside its chunk {}..{}",
            off + len,
            self.byte0,
            self.end
        );
        off
    }

    fn word(&self, k: usize) -> &'e TWord {
        self.pool.word(self.in_chunk((self.word0 + k) * 8, 8) / 8)
    }

    /// The hash-chain successor.
    pub fn hnext(&self, ctx: &mut Ctx<'_, 'e>) -> Result<Option<ItemHandle>, Abort> {
        Ok(decode_opt(ctx.get_word(self.word(W_HNEXT))?))
    }

    /// Sets the hash-chain successor.
    pub fn set_hnext(&self, ctx: &mut Ctx<'_, 'e>, h: Option<ItemHandle>) -> Result<(), Abort> {
        ctx.put_word(self.word(W_HNEXT), encode_opt(h))
    }

    /// The LRU successor (towards the tail / older items).
    pub fn lru_next(&self, ctx: &mut Ctx<'_, 'e>) -> Result<Option<ItemHandle>, Abort> {
        Ok(decode_opt(ctx.get_word(self.word(W_LRU_NEXT))?))
    }

    /// Sets the LRU successor.
    pub fn set_lru_next(&self, ctx: &mut Ctx<'_, 'e>, h: Option<ItemHandle>) -> Result<(), Abort> {
        ctx.put_word(self.word(W_LRU_NEXT), encode_opt(h))
    }

    /// The LRU predecessor (towards the head / newer items).
    pub fn lru_prev(&self, ctx: &mut Ctx<'_, 'e>) -> Result<Option<ItemHandle>, Abort> {
        Ok(decode_opt(ctx.get_word(self.word(W_LRU_PREV))?))
    }

    /// Sets the LRU predecessor.
    pub fn set_lru_prev(&self, ctx: &mut Ctx<'_, 'e>, h: Option<ItemHandle>) -> Result<(), Abort> {
        ctx.put_word(self.word(W_LRU_PREV), encode_opt(h))
    }

    /// Current reference count.
    pub fn refcount(&self, ctx: &mut Ctx<'_, 'e>, policy: &Policy) -> Result<u64, Abort> {
        // Reading a volatile refcount is as unsafe as writing it.
        ctx.unsafe_until(policy, Category::RefcountRmw, |c| {
            c.get_word(self.word(W_REFCOUNT))
        })
    }

    /// `lock incr`-style refcount increment; returns the new count.
    pub fn ref_incr(&self, ctx: &mut Ctx<'_, 'e>, policy: &Policy) -> Result<u64, Abort> {
        Ok(ctx.refcount_add(policy, self.word(W_REFCOUNT), 1)? + 1)
    }

    /// Refcount decrement; returns the new count.
    ///
    /// # Panics
    ///
    /// Terminates (memcached asserts) on underflow.
    pub fn ref_decr(&self, ctx: &mut Ctx<'_, 'e>, policy: &Policy) -> Result<u64, Abort> {
        let old = ctx.refcount_add(policy, self.word(W_REFCOUNT), u64::MAX)?;
        ctx.assert_that(policy, old > 0, "item refcount underflow")?;
        Ok(old - 1)
    }

    /// Sets the refcount outside of contention (alloc/free paths).
    pub fn set_refcount(&self, ctx: &mut Ctx<'_, 'e>, v: u64) -> Result<(), Abort> {
        ctx.put_word(self.word(W_REFCOUNT), v)
    }

    /// `it_flags` plus the slab class in bits 8..16.
    pub fn flags(&self, ctx: &mut Ctx<'_, 'e>) -> Result<u64, Abort> {
        ctx.get_word(self.word(W_FLAGS))
    }

    /// Overwrites the flag word.
    pub fn set_flags(&self, ctx: &mut Ctx<'_, 'e>, v: u64) -> Result<(), Abort> {
        ctx.put_word(self.word(W_FLAGS), v)
    }

    /// Sets or clears individual `it_flags` bits.
    pub fn update_flags(
        &self,
        ctx: &mut Ctx<'_, 'e>,
        set: u64,
        clear: u64,
    ) -> Result<(), Abort> {
        let f = self.flags(ctx)?;
        self.set_flags(ctx, (f & !clear) | set)
    }

    /// (expiry time, last access time), both in cache seconds.
    pub fn times(&self, ctx: &mut Ctx<'_, 'e>) -> Result<(u32, u32), Abort> {
        let w = ctx.get_word(self.word(W_TIMES))?;
        Ok((w as u32, (w >> 32) as u32))
    }

    /// Sets (expiry, last access).
    pub fn set_times(&self, ctx: &mut Ctx<'_, 'e>, exp: u32, last: u32) -> Result<(), Abort> {
        ctx.put_word(self.word(W_TIMES), exp as u64 | ((last as u64) << 32))
    }

    /// Decoded sizes word.
    pub fn sizes(&self, ctx: &mut Ctx<'_, 'e>) -> Result<ItemSizes, Abort> {
        Ok(ItemSizes::unpack(ctx.get_word(self.word(W_SIZES))?))
    }

    /// Stores the sizes word.
    pub fn set_sizes(&self, ctx: &mut Ctx<'_, 'e>, s: ItemSizes) -> Result<(), Abort> {
        ctx.put_word(self.word(W_SIZES), s.pack())
    }

    /// The item's CAS id.
    pub fn cas(&self, ctx: &mut Ctx<'_, 'e>) -> Result<u64, Abort> {
        ctx.get_word(self.word(W_CAS))
    }

    /// Sets the CAS id.
    pub fn set_cas(&self, ctx: &mut Ctx<'_, 'e>, v: u64) -> Result<(), Abort> {
        ctx.put_word(self.word(W_CAS), v)
    }

    /// Client-supplied flags.
    pub fn client_flags(&self, ctx: &mut Ctx<'_, 'e>) -> Result<u32, Abort> {
        Ok(ctx.get_word(self.word(W_CFLAGS))? as u32)
    }

    /// Sets the client flags.
    pub fn set_client_flags(&self, ctx: &mut Ctx<'_, 'e>, v: u32) -> Result<(), Abort> {
        ctx.put_word(self.word(W_CFLAGS), v as u64)
    }

    /// Byte offset of the key within the pool.
    pub fn key_off(&self) -> usize {
        self.byte0 + HDR_BYTES
    }

    /// Writes the key bytes (alloc path; the chunk is still private).
    pub fn write_key(&self, ctx: &mut Ctx<'_, 'e>, key: &[u8]) -> Result<(), Abort> {
        ctx.put_range(self.pool, self.in_chunk(self.key_off(), key.len()), key)
    }

    /// Compares the item's key with a lookup key — memcached's
    /// `assoc_find` inner loop. Uses libc `memcmp` until the Lib stage
    /// replaces it with the transaction-safe reimplementation.
    pub fn key_eq(
        &self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        key: &[u8],
        nkey: u8,
    ) -> Result<bool, Abort> {
        if nkey as usize != key.len() {
            return Ok(false);
        }
        ctx.unsafe_until(policy, Category::Libc, |c| {
            let off = self.in_chunk(self.key_off(), key.len());
            Ok(tmstd::memcmp_slice(c, self.pool, off, key)? == 0)
        })
    }

    /// Reads the key out (for migration/diagnostics).
    pub fn read_key(&self, ctx: &mut Ctx<'_, 'e>, nkey: u8) -> Result<Vec<u8>, Abort> {
        let mut k = vec![0u8; nkey as usize];
        ctx.get_range(self.pool, self.in_chunk(self.key_off(), k.len()), &mut k)?;
        Ok(k)
    }

    /// Byte offset of the rendered suffix.
    pub fn suffix_off(&self, sizes: ItemSizes) -> usize {
        self.key_off() + sizes.nkey as usize
    }

    /// Byte offset of the value.
    pub fn value_off(&self, sizes: ItemSizes) -> usize {
        self.suffix_off(sizes) + sizes.nsuffix as usize
    }

    /// Renders the response suffix — memcached's `item_make_header`: the
    /// `snprintf` clone into a private buffer, then a `memcpy` of exactly
    /// `nsuffix` bytes into the item, so the terminating NUL never lands
    /// past an item whose empty value ends its chunk. A libc call until
    /// the Lib stage.
    pub fn write_suffix(
        &self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        sizes: ItemSizes,
        client_flags: u32,
    ) -> Result<(), Abort> {
        let off = self.in_chunk(self.suffix_off(sizes), sizes.nsuffix as usize);
        ctx.unsafe_until(policy, Category::Libc, |c| {
            let mut suffix = [0u8; SUFFIX_MAX + 1];
            tmstd::pure(|| tmstd::snprintf_item_suffix(&mut suffix, client_flags, sizes.nbytes));
            tmstd::memcpy_from_slice(c, self.pool, off, &suffix[..sizes.nsuffix as usize])
        })
    }

    /// Copies the value in — memcached's `memcpy(ITEM_data(it), ...)`,
    /// a libc call until the Lib stage.
    pub fn write_value(
        &self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        sizes: ItemSizes,
        value: &[u8],
    ) -> Result<(), Abort> {
        let data = &value[..(sizes.nbytes as usize).min(value.len())];
        let off = self.in_chunk(self.value_off(sizes), data.len());
        ctx.unsafe_until(policy, Category::Libc, |c| {
            tmstd::memcpy_from_slice(c, self.pool, off, data)
        })
    }

    /// Copies the value out — the `get` response path.
    pub fn read_value(
        &self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        sizes: ItemSizes,
    ) -> Result<Vec<u8>, Abort> {
        let off = self.in_chunk(self.value_off(sizes), sizes.nbytes as usize);
        ctx.unsafe_until(policy, Category::Libc, |c| {
            let mut v = vec![0u8; sizes.nbytes as usize];
            tmstd::memcpy_to_slice(c, self.pool, off, &mut v)?;
            Ok(v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Branch, Stage};

    fn test_item(len: usize) -> (TBytes, ItemHandle) {
        let page = TBytes::zeroed(len);
        let h = ItemHandle {
            class: 1,
            page: 0,
            chunk: 0,
        };
        (page, h)
    }

    #[test]
    fn handle_word_roundtrip() {
        let h = ItemHandle {
            class: 3,
            page: 70_000,
            chunk: 513,
        };
        assert_eq!(ItemHandle::from_word(h.to_word()), h);
        assert_ne!(h.to_word(), 0, "handles must never encode as null");
    }

    #[test]
    fn opt_encoding() {
        assert_eq!(decode_opt(0), None);
        let h = ItemHandle {
            class: 0,
            page: 0,
            chunk: 0,
        };
        assert_eq!(decode_opt(encode_opt(Some(h))), Some(h));
        assert_eq!(encode_opt(None), 0);
    }

    #[test]
    fn sizes_pack_roundtrip() {
        let s = ItemSizes {
            nkey: 64,
            nsuffix: 12,
            nbytes: 1024,
        };
        assert_eq!(ItemSizes::unpack(s.pack()), s);
        assert_eq!(s.total(), HDR_BYTES + 64 + 12 + 1024);
    }

    #[test]
    fn header_fields_roundtrip() {
        let (page, handle) = test_item(256);
        let it = ItemRef::new(&page, 0, page.len(), handle);
        let mut ctx = Ctx::Direct;
        let other = ItemHandle {
            class: 2,
            page: 9,
            chunk: 4,
        };
        it.set_hnext(&mut ctx, Some(other)).unwrap();
        assert_eq!(it.hnext(&mut ctx).unwrap(), Some(other));
        it.set_lru_next(&mut ctx, None).unwrap();
        assert_eq!(it.lru_next(&mut ctx).unwrap(), None);
        it.set_times(&mut ctx, 100, 7).unwrap();
        assert_eq!(it.times(&mut ctx).unwrap(), (100, 7));
        it.set_cas(&mut ctx, 0xdead).unwrap();
        assert_eq!(it.cas(&mut ctx).unwrap(), 0xdead);
        it.set_client_flags(&mut ctx, 42).unwrap();
        assert_eq!(it.client_flags(&mut ctx).unwrap(), 42);
    }

    #[test]
    fn flag_bits() {
        let (page, handle) = test_item(256);
        let it = ItemRef::new(&page, 0, page.len(), handle);
        let mut ctx = Ctx::Direct;
        it.update_flags(&mut ctx, ITEM_LINKED, 0).unwrap();
        it.update_flags(&mut ctx, ITEM_FETCHED, 0).unwrap();
        assert_eq!(
            it.flags(&mut ctx).unwrap() & (ITEM_LINKED | ITEM_FETCHED),
            ITEM_LINKED | ITEM_FETCHED
        );
        it.update_flags(&mut ctx, 0, ITEM_LINKED).unwrap();
        assert_eq!(it.flags(&mut ctx).unwrap() & ITEM_LINKED, 0);
    }

    #[test]
    fn refcount_protocol() {
        let (page, handle) = test_item(256);
        let it = ItemRef::new(&page, 0, page.len(), handle);
        let mut ctx = Ctx::Direct;
        let policy = Branch::Baseline.policy();
        it.set_refcount(&mut ctx, 1).unwrap();
        assert_eq!(it.ref_incr(&mut ctx, &policy).unwrap(), 2);
        assert_eq!(it.ref_decr(&mut ctx, &policy).unwrap(), 1);
        assert_eq!(it.refcount(&mut ctx, &policy).unwrap(), 1);
    }

    #[test]
    #[should_panic(expected = "refcount underflow")]
    fn refcount_underflow_asserts() {
        let (page, handle) = test_item(256);
        let it = ItemRef::new(&page, 0, page.len(), handle);
        let mut ctx = Ctx::Direct;
        let policy = Branch::Baseline.policy();
        let _ = it.ref_decr(&mut ctx, &policy);
    }

    #[test]
    fn suffix_of_an_empty_value_stays_inside_its_chunk() {
        // An empty value in a chunk it fills exactly: the next byte is the
        // next chunk's link word (hash chain or free list).
        let sizes = ItemSizes {
            nkey: 5,
            nsuffix: tmstd::item_suffix_len(0, 0) as u8,
            nbytes: 0,
        };
        let (page, handle) = test_item(sizes.total() + 1);
        page.store_byte_direct(sizes.total(), 0xAB);
        let it = ItemRef::new(&page, 0, page.len(), handle);
        let mut ctx = Ctx::Direct;
        it.write_suffix(&mut ctx, &Branch::Baseline.policy(), sizes, 0).unwrap();
        let off = it.suffix_off(sizes);
        assert_eq!(page.to_vec_direct()[off..], *b" 0 0\r\n\xAB");
    }

    #[test]
    fn key_suffix_value_layout() {
        let (page, handle) = test_item(512);
        let it = ItemRef::new(&page, 0, page.len(), handle);
        let mut ctx = Ctx::Direct;
        let policy = Branch::Ip(Stage::Lib).policy();
        let sizes = ItemSizes {
            nkey: 5,
            nsuffix: 10,
            nbytes: 11,
        };
        it.set_sizes(&mut ctx, sizes).unwrap();
        it.write_key(&mut ctx, b"hello").unwrap();
        it.write_suffix(&mut ctx, &policy, sizes, 0).unwrap();
        it.write_value(&mut ctx, &policy, sizes, b"world wide!").unwrap();
        assert!(it.key_eq(&mut ctx, &policy, b"hello", 5).unwrap());
        assert!(!it.key_eq(&mut ctx, &policy, b"hellx", 5).unwrap());
        assert!(!it.key_eq(&mut ctx, &policy, b"hello!", 5).unwrap());
        assert_eq!(it.read_value(&mut ctx, &policy, sizes).unwrap(), b"world wide!");
        assert_eq!(it.read_key(&mut ctx, 5).unwrap(), b"hello");
    }
}
