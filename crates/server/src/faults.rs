//! Deterministic fault injection for chaos-testing `seedbd`.
//!
//! A [`FaultPlan`] is parsed from a compact spec string (the `--faults`
//! flag) and decides, per accepted connection, which faults to apply.
//! Selection is a pure function of `(plan seed, connection index)` — a
//! splitmix64 hash — so a chaos run is reproducible: the same spec and
//! the same arrival order always fault the same connections. Faults model
//! the failure modes the overload machinery must absorb:
//!
//! * `slow_read` — the handler stalls before reading the request, as if
//!   the kernel drip-fed the bytes (a slow or malicious peer).
//! * `truncate_write` — the response socket accepts only the first N
//!   bytes, then errors, exercising the write-error accounting.
//! * `starve` — the handler seizes every free morsel-worker permit for a
//!   window, forcing concurrent `/recommend` runs down the degradation
//!   ladder (serial → cached-partial → shed).
//! * `slow_catalog` — every dataset build sleeps first, widening the
//!   window in which a deadline can expire mid-request.
//!
//! Spec grammar (comma-separated, all parts optional):
//!
//! ```text
//! seed=7,slow_read=3:50,truncate_write=5:64,starve=7:100,slow_catalog=30
//! ```
//!
//! `kind=P:X` faults connection `i` when `hash(seed, i) % P == 0` with
//! parameter `X` (milliseconds, or bytes for `truncate_write`);
//! `slow_catalog=MS` applies to every build unconditionally.

use std::io::{self, Write};

/// Deterministic per-connection fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Hash seed; distinct seeds fault distinct connection subsets.
    pub seed: u64,
    /// Every `P`-th hashed connection stalls `MS` ms before reading.
    pub slow_read: Option<(u64, u64)>,
    /// Every `P`-th hashed connection gets a socket that truncates the
    /// response after `BYTES` bytes and then errors.
    pub truncate_write: Option<(u64, u64)>,
    /// Every `P`-th hashed connection holds all free worker permits for
    /// `MS` ms before handling its own request.
    pub starve: Option<(u64, u64)>,
    /// Milliseconds every catalog build sleeps before generating.
    pub slow_catalog_ms: u64,
}

/// The faults resolved for one specific connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnFaults {
    /// Sleep this long before reading the request.
    pub slow_read_ms: Option<u64>,
    /// Cap response writes at this many bytes, then error.
    pub truncate_write_bytes: Option<u64>,
    /// Hold all free worker permits this long before handling.
    pub starve_ms: Option<u64>,
}

impl FaultPlan {
    /// Parses a spec string. Every error is a human-readable message for
    /// the `--faults` flag to print.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec part '{part}' is not key=value"))?;
            match key {
                "seed" => plan.seed = parse_u64(value, "seed")?,
                "slow_read" => plan.slow_read = Some(parse_period_param(value, "slow_read")?),
                "truncate_write" => {
                    plan.truncate_write = Some(parse_period_param(value, "truncate_write")?)
                }
                "starve" => plan.starve = Some(parse_period_param(value, "starve")?),
                "slow_catalog" => plan.slow_catalog_ms = parse_u64(value, "slow_catalog")?,
                other => {
                    return Err(format!(
                        "unknown fault '{other}' (expected seed, slow_read, \
                         truncate_write, starve, or slow_catalog)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// The faults that apply to connection number `conn` (the accept
    /// loop's monotonically increasing counter).
    pub fn for_conn(&self, conn: u64) -> ConnFaults {
        let hit = |fault: Option<(u64, u64)>, salt: u64| -> Option<u64> {
            let (period, param) = fault?;
            splitmix64(self.seed ^ salt ^ conn)
                .is_multiple_of(period)
                .then_some(param)
        };
        ConnFaults {
            slow_read_ms: hit(self.slow_read, 0x51),
            truncate_write_bytes: hit(self.truncate_write, 0x7c),
            starve_ms: hit(self.starve, 0xa3),
        }
    }
}

fn parse_u64(text: &str, key: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("fault '{key}' expects a number, got '{text}'"))
}

/// Parses `PERIOD:PARAM` with `PERIOD ≥ 1`.
fn parse_period_param(text: &str, key: &str) -> Result<(u64, u64), String> {
    let (period, param) = text
        .split_once(':')
        .ok_or_else(|| format!("fault '{key}' expects PERIOD:PARAM, got '{text}'"))?;
    let period = parse_u64(period, key)?;
    if period == 0 {
        return Err(format!("fault '{key}' period must be at least 1"));
    }
    Ok((period, parse_u64(param, key)?))
}

/// splitmix64: a full-period 64-bit mixer; consecutive connection indices
/// map to well-scattered hashes, so `% period` sampling is unbiased.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A writer that forwards at most `cap` bytes to the inner writer and
/// fails every write after that — the shape of a peer that vanished
/// mid-response. The error is `BrokenPipe`, what a real dead socket
/// raises, so the handler's write-error accounting sees the same thing
/// either way.
pub struct TruncatingWriter<W> {
    inner: W,
    remaining: u64,
}

impl<W: Write> TruncatingWriter<W> {
    /// Wraps `inner`, allowing `cap` bytes through.
    pub fn new(inner: W, cap: u64) -> Self {
        TruncatingWriter {
            inner,
            remaining: cap,
        }
    }
}

impl<W: Write> Write for TruncatingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected fault: write truncated",
            ));
        }
        let allowed = (self.remaining as usize).min(buf.len());
        #[expect(
            clippy::indexing_slicing,
            reason = "allowed is remaining.min(buf.len()), bounded by construction"
        )]
        let written = self.inner.write(&buf[..allowed])?;
        self.remaining -= written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_spec() {
        let plan = FaultPlan::parse(
            "seed=7,slow_read=3:50,truncate_write=5:64,starve=7:100,slow_catalog=30",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.slow_read, Some((3, 50)));
        assert_eq!(plan.truncate_write, Some((5, 64)));
        assert_eq!(plan.starve, Some((7, 100)));
        assert_eq!(plan.slow_catalog_ms, 30);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn rejects_malformed_specs_with_messages() {
        for (spec, needle) in [
            ("nonsense", "key=value"),
            ("warp=1:2", "unknown fault"),
            ("slow_read=abc", "PERIOD:PARAM"),
            ("slow_read=0:5", "at least 1"),
            ("seed=xyz", "number"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec '{spec}': {err}");
        }
    }

    #[test]
    fn fault_selection_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::parse("seed=7,slow_read=3:50").unwrap();
        let hits: Vec<bool> = (0..64)
            .map(|i| plan.for_conn(i).slow_read_ms.is_some())
            .collect();
        assert_eq!(
            hits,
            (0..64)
                .map(|i| plan.for_conn(i).slow_read_ms.is_some())
                .collect::<Vec<_>>(),
            "same plan, same connection order → same faults"
        );
        // Roughly a third of connections hit with period 3 — and at least
        // one side of the split is non-trivial.
        let count = hits.iter().filter(|&&h| h).count();
        assert!((8..=40).contains(&count), "period-3 hit count {count}");
        // A different seed faults a different subset.
        let other = FaultPlan::parse("seed=8,slow_read=3:50").unwrap();
        let other_hits: Vec<bool> = (0..64)
            .map(|i| other.for_conn(i).slow_read_ms.is_some())
            .collect();
        assert_ne!(hits, other_hits);
    }

    #[test]
    fn period_one_faults_every_connection() {
        let plan = FaultPlan::parse("truncate_write=1:16").unwrap();
        for i in 0..32 {
            assert_eq!(plan.for_conn(i).truncate_write_bytes, Some(16));
        }
        assert!(plan.for_conn(0).slow_read_ms.is_none());
    }

    #[test]
    fn truncating_writer_caps_then_errors() {
        let mut out = Vec::new();
        let mut w = TruncatingWriter::new(&mut out, 5);
        assert_eq!(w.write(b"abc").unwrap(), 3);
        assert_eq!(w.write(b"defg").unwrap(), 2);
        let err = w.write(b"h").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(out, b"abcde");
    }
}
