//! The smoke test: `--quick` over every workload, gated and traced, with
//! no failed operation; and the names the harness emits are exactly the
//! names `BENCHMARK.json` lists, so the two cannot drift.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the harness's own output.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.text.len() && self.text[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.space();
        assert_eq!(
            self.text.get(self.at),
            Some(&byte),
            "expected {:?} at byte {}",
            byte as char,
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.space();
        self.text[self.at]
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let b = self.text[self.at];
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).expect("utf-8"),
                b'\\' => {
                    let escaped = self.text[self.at];
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other, // \" \\ \/
                    });
                }
                other => out.push(other),
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                while self.peek() != b'}' {
                    let key = self.string();
                    self.eat(b':');
                    map.insert(key, self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(map)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.at;
                while self.at < self.text.len() && !b",]} \n\r\t".contains(&self.text[self.at]) {
                    self.at += 1;
                }
                match std::str::from_utf8(&self.text[start..self.at]).expect("utf-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    number => Json::Num(
                        number
                            .parse()
                            .unwrap_or_else(|_| panic!("bad number {number:?}")),
                    ),
                }
            }
        }
    }
}

fn parse(text: &str) -> Json {
    Parser {
        text: text.as_bytes(),
        at: 0,
    }
    .value()
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn names(&self) -> Vec<String> {
        self.items()
            .iter()
            .map(|m| m.get("name").str().to_string())
            .collect()
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

fn sysbench() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_sysbench"))
}

/// `<target>/<profile>/sysbench` → `<target>`.
fn target_dir() -> PathBuf {
    sysbench()
        .parent()
        .and_then(Path::parent)
        .expect("target/<profile>/sysbench")
        .to_path_buf()
}

/// The `mcached` server binary, built if this target directory lacks it.
fn mcached() -> PathBuf {
    let path = target_dir().join("release").join("mcached");
    if !path.exists() {
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "bench",
                "--bin",
                "mcached",
            ])
            .current_dir(repo_root())
            .env("CARGO_TARGET_DIR", target_dir())
            .status()
            .expect("run cargo");
        assert!(status.success(), "building mcached failed");
    }
    path
}

fn benchmark_json() -> Json {
    parse(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json"),
    )
}

#[test]
fn harness_names_equal_benchmark_json() {
    let out = Command::new(sysbench())
        .arg("--list")
        .output()
        .expect("run sysbench --list");
    assert!(out.status.success());
    let listed = parse(&String::from_utf8(out.stdout).expect("utf-8"));
    let committed = benchmark_json();
    for section in ["workloads", "end_to_end", "per_layer"] {
        assert_eq!(
            listed.get(section),
            committed.get(section),
            "section {section} drifted"
        );
    }
    for w in committed.get("workloads").items() {
        let why = w.get("why").str();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {:?}",
            w.get("name")
        );
    }
}

/// Runs `--quick` over every workload and returns the result lines.
fn quick(trace: &str) -> Vec<Json> {
    let out = Command::new(sysbench())
        .args(["--quick", "--trace", trace, "--mcached"])
        .arg(mcached())
        .arg("--out-dir")
        .arg(target_dir().join(format!("benchmark-test-{trace}")))
        .output()
        .expect("run sysbench --quick");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "sysbench --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(parse)
        .collect()
}

#[test]
fn quick_suite_is_correct_and_emits_the_listed_metrics() {
    let committed = benchmark_json();
    let workloads = committed.get("workloads").names();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let results = quick(trace);
        assert_eq!(
            results.len(),
            workloads.len(),
            "one result line per workload"
        );
        for (result, workload) in results.iter().zip(&workloads) {
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{workload} trace {trace}"
            );
            assert_eq!(
                result.get("failed"),
                &Json::Num(0.0),
                "{workload} trace {trace}"
            );
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics is an object")
            };
            let mut emitted: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut listed = committed.get(section).names();
            emitted.sort_unstable();
            listed.sort_unstable();
            assert_eq!(emitted, listed, "{workload} trace {trace}");
            for m in committed.get(section).items() {
                let value = metrics[m.get("name").str()].get("value");
                assert!(
                    matches!(value, Json::Num(v) if v.is_finite()),
                    "{workload} {m:?}"
                );
                assert_eq!(metrics[m.get("name").str()].get("unit"), m.get("unit"));
            }
        }
    }
}
