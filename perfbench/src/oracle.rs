//! The served workloads' correctness oracle: the benchmark's own model
//! of every tenant's key set, against which every answer is checked.

use nvserver::{index_word, ReqOp, Response, ServerReport, Status};
use std::collections::BTreeSet;

/// Digits of [`index_word`]: prefixes are ranges of this many base-26
/// digits, most significant first.
const WORD_LEN: u32 = 14;

/// Most matches a prefix reply lists before its `… N more` line.
pub const LISTED: usize = 16;

/// The listing a prefix query over `keys` must answer: `found` and the
/// reply detail (first [`LISTED`] words, then a `… N more` line).
pub fn listing(keys: &BTreeSet<u64>, prefix: &str) -> (bool, String) {
    let (lo, hi) = prefix_range(prefix);
    let words: Vec<String> = keys.range(lo..hi).map(|&k| index_word(k)).collect();
    (!words.is_empty(), render_listing(&words))
}

/// Renders matches the way a served prefix reply does.
pub fn render_listing(words: &[String]) -> String {
    let shown = words[..words.len().min(LISTED)].join("\n");
    if words.len() > LISTED {
        format!("{shown}\n… {} more", words.len() - LISTED)
    } else {
        shown
    }
}

/// The key range whose [`index_word`]s start with `prefix`.
fn prefix_range(prefix: &str) -> (u64, u64) {
    let digits = prefix.len() as u32;
    assert!(digits <= WORD_LEN && prefix.bytes().all(|b| b.is_ascii_lowercase()));
    let head = prefix
        .bytes()
        .fold(0u128, |acc, b| acc * 26 + u128::from(b - b'a'));
    let span = 26u128.pow(WORD_LEN - digits);
    let clamp = |v: u128| u64::try_from(v).unwrap_or(u64::MAX);
    (clamp(head * span), clamp((head + 1) * span))
}

/// Model of every tenant plus the mismatches found so far.
#[derive(Debug)]
pub struct Oracle {
    tenants: Vec<BTreeSet<u64>>,
    mismatches: u64,
    first: Vec<String>,
}

impl Oracle {
    /// An oracle over `n` empty tenants (ids `0..n`).
    pub fn new(n: usize) -> Oracle {
        Oracle {
            tenants: vec![BTreeSet::new(); n],
            mismatches: 0,
            first: Vec::new(),
        }
    }

    /// Mismatches seen so far.
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Descriptions of the first few mismatches.
    pub fn first_mismatches(&self) -> &[String] {
        &self.first
    }

    fn fail(&mut self, what: String) {
        self.mismatches += 1;
        if self.first.len() < 5 {
            self.first.push(what);
        }
    }

    /// Checks one answer and advances the model. Returns the number of
    /// writes it applied.
    pub fn check(&mut self, id: u64, tenant: u32, op: &ReqOp, resp: &Response) -> u64 {
        if resp.status != Status::Ok || resp.id != id {
            self.fail(format!(
                "request {id} on tenant {tenant} ({op:?}): status {} id {} detail {:?}",
                resp.status.name(),
                resp.id,
                resp.detail
            ));
            return 0;
        }
        let keys = &mut self.tenants[tenant as usize];
        let mut applied = 0;
        let ok = match op {
            ReqOp::Get { key } => resp.found == Some(keys.contains(key)),
            ReqOp::Put { key } => {
                let fresh = keys.insert(*key);
                applied += u64::from(fresh);
                resp.found == Some(fresh)
            }
            ReqOp::Delete { key } => {
                let present = keys.remove(key);
                applied += u64::from(present);
                resp.found == Some(present)
            }
            ReqOp::Batch { ops } => {
                let want: Vec<bool> = ops
                    .iter()
                    .map(|o| {
                        if o.put {
                            keys.insert(o.key)
                        } else {
                            keys.remove(&o.key)
                        }
                    })
                    .collect();
                applied += want.iter().filter(|&&a| a).count() as u64;
                resp.batch.len() == want.len()
                    && resp.batch.iter().zip(&want).all(|(r, &w)| r.applied == w)
            }
            ReqOp::PrefixQuery { prefix } => {
                let (found, detail) = listing(keys, prefix);
                resp.found == Some(found) && resp.detail == detail
            }
            ReqOp::Evict => resp.detail == "evicted",
            ReqOp::Heal => true,
        };
        if !ok {
            self.fail(format!(
                "request {id} on tenant {tenant} ({op:?}): found {:?} batch {:?} detail {:?}",
                resp.found, resp.batch, resp.detail
            ));
        }
        applied
    }

    /// Checks the final server report: every tenant's key set matches
    /// the model, no invariant check failed and no request failed.
    pub fn check_report(&mut self, report: &ServerReport) {
        for (id, keys) in self.tenants.clone().iter().enumerate() {
            let Some(t) = report.tenant(id as u32) else {
                self.fail(format!("tenant {id} missing from the server report"));
                continue;
            };
            let got: BTreeSet<u64> = t.keys.iter().copied().collect();
            if got != *keys || got.len() != t.keys.len() {
                self.fail(format!(
                    "tenant {id}: final key set has {} keys, model {}",
                    t.keys.len(),
                    keys.len()
                ));
            }
            let s = &t.snapshot;
            if s.invariant_failures != 0 || s.failed != 0 || s.requests != s.ok {
                self.fail(format!("tenant {id}: final metrics {s:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_ranges_follow_index_words() {
        let keys: BTreeSet<u64> = (0..2048).collect();
        let word = index_word(700);
        for len in 10..=14 {
            let (lo, hi) = prefix_range(&word[..len]);
            let by_range: Vec<u64> = keys.range(lo..hi).copied().collect();
            let by_scan: Vec<u64> = keys
                .iter()
                .copied()
                .filter(|&k| index_word(k).starts_with(&word[..len]))
                .collect();
            assert_eq!(by_range, by_scan, "prefix length {len}");
        }
        let (found, detail) = listing(&keys, &word[..12]);
        assert!(found);
        assert!(detail.ends_with("… 660 more"), "{detail}");
    }
}
