//! Output checks: every response is compared with what the library
//! renders for the same request, and — where a committed digest exists —
//! with that digest too, so a change that alters server and library
//! alike still fails.

use std::collections::HashMap;

use crate::gen::{population, warmup_pool, Request};

/// Committed digests of the library's bodies for the fixed KB: every
/// describe and faces-summarize key of the population and every query
/// payload. Written by `remibench --write-digests`.
const DIGESTS: &str = include_str!("../digests.txt");

/// FNV-1a (64-bit) over the body bytes.
pub fn digest64(body: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in body.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// [`digest64`] folded to 32 bits (the committed table's width).
pub fn digest(body: &str) -> u32 {
    let h = digest64(body);
    (h ^ (h >> 32)) as u32
}

/// The committed digest table, keyed by response-cache key.
pub struct Digests(HashMap<String, u32>);

/// Section headers of the committed table. Describe and summarize
/// digests are listed in population order, one per line; query digests
/// carry their cache key.
const DESCRIBE: &str = "[describe]";
const SUMMARIZE: &str = "[summarize]";
const WARMUP: &str = "[warmup]";
const QUERY: &str = "[query]";

impl Digests {
    /// The committed table.
    pub fn committed() -> Digests {
        Digests::parse(DIGESTS, &population(), &warmup_pool())
    }

    fn parse(text: &str, population: &[String], warmup: &[String]) -> Digests {
        let mut map = HashMap::new();
        let mut section = "";
        let mut entities = population.iter();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with('[') {
                section = line;
                entities = if line == WARMUP { warmup } else { population }.iter();
                continue;
            }
            let (hex, rest) = line.split_once(' ').unwrap_or((line, ""));
            let Ok(value) = u32::from_str_radix(hex, 16) else {
                continue;
            };
            let request = match section {
                DESCRIBE | WARMUP => entities.next().map(|e| Request::Describe(e.clone())),
                SUMMARIZE => entities.next().map(|e| Request::Summarize(e.clone())),
                _ => None,
            };
            let key = match request {
                Some(r) => r.cache_key(&[]),
                None if section == QUERY => Some(rest.to_string()),
                None => None,
            };
            if let Some(key) = key {
                map.insert(key, value);
            }
        }
        Digests(map)
    }

    /// Number of committed digests.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Does `body` match the committed digest for `key`? A key without a
    /// committed digest never matches.
    pub fn matches(&self, key: &str, body: &str) -> bool {
        self.0.get(key) == Some(&digest(body))
    }

    /// Renders a table in the committed format from the library's bodies:
    /// describe and summarize bodies in population order, warm-up describe
    /// bodies in warm-up-pool order, query bodies with their cache keys.
    pub fn render(
        describe: &[String],
        summarize: &[String],
        warmup: &[String],
        queries: &[(String, String)],
    ) -> String {
        let mut out = String::from(
            "# remibench: FNV-1a (folded to 32 bits) of the library's response body per\n\
             # request on the scale-8 seed-42 DBpedia-like KB. Describe and summarize\n\
             # digests follow the population order (gen::population), warm-up ones the\n\
             # warm-up pool order (gen::warmup_pool). Regenerate with\n\
             # `cargo run --release --manifest-path remibench/Cargo.toml -- --write-digests`.\n",
        );
        out.push_str(DESCRIBE);
        out.push('\n');
        for body in describe {
            out.push_str(&format!("{:08x}\n", digest(body)));
        }
        out.push_str(SUMMARIZE);
        out.push('\n');
        for body in summarize {
            out.push_str(&format!("{:08x}\n", digest(body)));
        }
        out.push_str(WARMUP);
        out.push('\n');
        for body in warmup {
            out.push_str(&format!("{:08x}\n", digest(body)));
        }
        out.push_str(QUERY);
        out.push('\n');
        for (key, body) in queries {
            out.push_str(&format!("{:08x} {key}\n", digest(body)));
        }
        out
    }
}

/// Attempted and failed operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed share of attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The check of a response whose body is known exactly: status 200, body
/// byte-equal to the library rendering, and the rendering matching its
/// committed digest (`digest_ok`).
pub fn exact(status: u16, body: &str, library: &str, digest_ok: bool) -> bool {
    status == 200 && body == library && digest_ok
}

/// The check of a response whose body depends on concurrent ingests:
/// status 200 and the body starting with the expected prefix (the exact
/// comparison happens after the run, against a replica).
pub fn shaped(status: u16, body: &str, prefix: &str) -> bool {
    status == 200 && body.starts_with(prefix)
}

/// Reads an unsigned integer field (`"name":123`) from a flat JSON body.
pub fn json_u64(body: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\":");
    let at = body.find(&pat)? + pat.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_body_and_non_200_each_fail_once() {
        let library = "{\"entity\":\"e:A\",\"k\":1}";
        let population = vec!["e:A".to_string()];
        let text = Digests::render(&[library.to_string()], &[], &[], &[]);
        let table = Digests::parse(&text, &population, &[]);
        let key = "describe?entity=e:A&k=1&threads=1";
        let digest_ok = table.matches(key, library);
        assert!(digest_ok);

        let mut tally = Tally::default();
        tally.record(exact(200, library, library, digest_ok));
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );

        let corrupted = library.replace("e:A", "e:B");
        tally.record(exact(200, &corrupted, library, digest_ok));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );

        tally.record(exact(503, library, library, digest_ok));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );

        // Server and library agreeing on a body the digest disagrees with
        // still fails.
        tally.record(exact(
            200,
            &corrupted,
            &corrupted,
            table.matches(key, &corrupted),
        ));
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
        assert!((tally.error_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn shaped_checks_status_and_prefix() {
        assert!(shaped(200, "{\"vars\":[\"s\"]}", "{\"vars\":["));
        assert!(!shaped(500, "{\"vars\":[\"s\"]}", "{\"vars\":["));
        assert!(!shaped(200, "{\"error\":\"x\"}", "{\"vars\":["));
    }

    #[test]
    fn reads_integer_fields() {
        let body = "{\"appended\":40,\"epoch\":7,\"x\":\"y\"}";
        assert_eq!(json_u64(body, "appended"), Some(40));
        assert_eq!(json_u64(body, "epoch"), Some(7));
        assert_eq!(json_u64(body, "x"), None);
        assert_eq!(json_u64(body, "missing"), None);
    }

    #[test]
    fn committed_table_covers_the_population() {
        let d = Digests::committed();
        assert!(d.len() >= 2 * crate::gen::population().len());
    }
}
