//! Canonical result signatures for cross-request caching.
//!
//! A serving layer in front of the engine wants to reuse work across
//! requests: two requests that are guaranteed to produce the same
//! [`Recommendation`](crate::Recommendation) (or the same per-view
//! aggregates) should map to the same cache key, and requests that can
//! differ must never collide. The functions here define that key space:
//!
//! * [`predicate_signature`] — a canonical rendering of a
//!   [`Predicate`]: commutative children of `AND`/`OR` are flattened,
//!   sorted and deduplicated, `IN` code lists are sorted, and float
//!   comparisons render their exact bit pattern. Equivalent spellings
//!   like `a = 1 AND b = 2` vs `b = 2 AND a = 1` normalize to one key.
//! * [`reference_signature`] — the same for a [`ReferenceSpec`].
//! * [`ViewSpec::signature`] — identifies a view `(a, m, f)` independent
//!   of its enumeration id. Per-view cache keys compose
//!   `predicate|reference|view|phN`, `N` the run's effective phase count
//!   (1 for the unphased strategies), because a view's per-phase entry is
//!   only replayable under the same partition granularity (see
//!   [`crate::cache`]).
//! * [`SeeDbConfig::result_signature`] — exactly the configuration knobs
//!   that can change the *content* of a recommendation. Knobs that are
//!   bit-identical by engine contract (`engine_mode`, every sharing knob,
//!   `parallelism`, `morsel_rows`) are deliberately excluded so requests
//!   differing only in execution shape share cache entries.
//!
//! Signatures are conservative: semantically equal inputs *may* still get
//! different signatures (costing only a cache miss), but inputs that can
//! produce different results always get different signatures.

use crate::config::{ExecutionStrategy, PruningKind, SeeDbConfig};
use crate::reference::ReferenceSpec;
use crate::view::ViewSpec;
use seedb_engine::Predicate;

/// Canonical signature of a predicate (see module docs).
pub fn predicate_signature(p: &Predicate) -> String {
    render(&canonicalize(p))
}

/// Canonical identity of a built-in (seeded synthetic) dataset instance:
/// name, row count, and generator seed. Two instances with the same
/// signature hold identical rows, so serving-layer caches may share
/// entries across them.
pub fn instance_signature(name: &str, rows: usize, seed: u64) -> String {
    format!("{name}@{rows}#s{seed}")
}

/// Canonical identity of an *ingested* dataset instance: name, row count,
/// and a fingerprint of the raw bytes it was loaded from. The fingerprint
/// keys the content (not a generator), so re-ingesting different data
/// under the same name can never alias a stale cache entry; the `#f`
/// namespace keeps ingested instances disjoint from seeded ones.
pub fn ingested_instance_signature(name: &str, rows: usize, fingerprint: u64) -> String {
    format!("{name}@{rows}#f{fingerprint:016x}")
}

/// Canonical signature of a reference specification.
pub fn reference_signature(r: &ReferenceSpec) -> String {
    match r {
        ReferenceSpec::WholeTable => "whole".to_owned(),
        ReferenceSpec::Complement => "compl".to_owned(),
        ReferenceSpec::Query(q) => format!("query:{}", predicate_signature(q)),
    }
}

/// Structurally canonical form: `AND`/`OR` flattened, sorted by rendered
/// child, deduplicated, singletons collapsed; `IN` code lists sorted.
fn canonicalize(p: &Predicate) -> Predicate {
    match p {
        Predicate::And(parts) => rebuild_commutative(parts, true),
        Predicate::Or(parts) => rebuild_commutative(parts, false),
        Predicate::Not(inner) => Predicate::Not(Box::new(canonicalize(inner))),
        Predicate::CatIn { col, codes } => {
            let mut codes = codes.clone();
            codes.sort_unstable();
            codes.dedup();
            Predicate::CatIn { col: *col, codes }
        }
        other => other.clone(),
    }
}

/// Flattens same-kind children, canonicalizes each, sorts by rendering,
/// dedups, and collapses the degenerate arities (`AND []` selects
/// everything, `OR []` nothing).
fn rebuild_commutative(parts: &[Predicate], is_and: bool) -> Predicate {
    let mut flat = Vec::new();
    for part in parts {
        let c = canonicalize(part);
        match (is_and, c) {
            (true, Predicate::And(inner)) => flat.extend(inner),
            (false, Predicate::Or(inner)) => flat.extend(inner),
            (_, other) => flat.push(other),
        }
    }
    let mut rendered: Vec<(String, Predicate)> =
        flat.into_iter().map(|c| (render(&c), c)).collect();
    rendered.sort_by(|a, b| a.0.cmp(&b.0));
    rendered.dedup_by(|a, b| a.0 == b.0);
    let mut children: Vec<Predicate> = rendered.into_iter().map(|(_, c)| c).collect();
    match children.len() {
        0 => {
            if is_and {
                Predicate::True
            } else {
                Predicate::False
            }
        }
        1 => children.swap_remove(0),
        _ => {
            if is_and {
                Predicate::And(children)
            } else {
                Predicate::Or(children)
            }
        }
    }
}

/// Renders a canonical predicate to its signature string. Float values
/// render as exact bit patterns so `0.1 + 0.2` and `0.3` never alias.
fn render(p: &Predicate) -> String {
    match p {
        Predicate::True => "T".to_owned(),
        Predicate::False => "F".to_owned(),
        Predicate::CatEq { col, code } => format!("ce:{}:{}", col.0, code),
        Predicate::CatIn { col, codes } => {
            let list: Vec<String> = codes.iter().map(|c| c.to_string()).collect();
            format!("ci:{}:[{}]", col.0, list.join(","))
        }
        Predicate::BoolEq { col, value } => format!("be:{}:{}", col.0, value),
        Predicate::NumCmp { col, op, value } => {
            format!("nc:{}:{}:{:016x}", col.0, op.sql(), value.to_bits())
        }
        Predicate::IsNull { col } => format!("nul:{}", col.0),
        Predicate::And(parts) => {
            let list: Vec<String> = parts.iter().map(render).collect();
            format!("and({})", list.join("&"))
        }
        Predicate::Or(parts) => {
            let list: Vec<String> = parts.iter().map(render).collect();
            format!("or({})", list.join("|"))
        }
        Predicate::Not(inner) => format!("not({})", render(inner)),
    }
}

impl ViewSpec {
    /// Identity of the view independent of its enumeration position:
    /// dimension column, measure column, aggregate function.
    pub fn signature(&self) -> String {
        format!("v:{}:{}:{}", self.dim.0, self.measure.0, self.func)
    }
}

impl SeeDbConfig {
    /// Canonical signature of every knob that can change the *content* of
    /// a [`Recommendation`](crate::Recommendation) (ranked views, their
    /// utilities, distributions).
    ///
    /// Included: `k`, `metric`, `agg_functions` (order matters — it fixes
    /// view ids), `strategy`, and — only for the pruning strategies, where
    /// they actually influence results — `pruning`, `num_phases`, `delta`,
    /// and (for `RANDOM` pruning) `seed`. Excluded: `engine_mode` and all
    /// of `sharing`, which are bit-identical by engine contract, so
    /// requests differing only in execution shape share one signature.
    pub fn result_signature(&self) -> String {
        let funcs: Vec<&str> = self.agg_functions.iter().map(|f| f.name()).collect();
        let mut sig = format!(
            "k{}|{}|f[{}]|{}",
            self.k,
            self.metric.name(),
            funcs.join(","),
            self.strategy.label(),
        );
        if matches!(
            self.strategy,
            ExecutionStrategy::Comb | ExecutionStrategy::CombEarly
        ) {
            sig.push_str(&format!(
                "|{}|p{}|d{:016x}",
                self.pruning.label(),
                self.num_phases,
                self.delta.to_bits()
            ));
            if self.pruning == PruningKind::Random {
                sig.push_str(&format!("|s{}", self.seed));
            }
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seedb_engine::{CmpOp, Predicate as P};
    use seedb_storage::ColumnId;

    fn num(col: u32, value: f64) -> P {
        P::NumCmp {
            col: ColumnId(col),
            op: CmpOp::Eq,
            value,
        }
    }

    #[test]
    fn commutative_spellings_share_a_signature() {
        let a = P::And(vec![num(0, 1.0), num(1, 2.0)]);
        let b = P::And(vec![num(1, 2.0), num(0, 1.0)]);
        assert_eq!(predicate_signature(&a), predicate_signature(&b));
        // Nested same-kind conjunctions flatten.
        let c = P::And(vec![P::And(vec![num(0, 1.0)]), num(1, 2.0)]);
        assert_eq!(predicate_signature(&a), predicate_signature(&c));
        // Duplicate conjuncts collapse.
        let d = P::And(vec![num(0, 1.0), num(0, 1.0), num(1, 2.0)]);
        assert_eq!(predicate_signature(&a), predicate_signature(&d));
    }

    #[test]
    fn different_predicates_do_not_collide() {
        let preds = [
            P::True,
            P::False,
            num(0, 1.0),
            num(0, 2.0),
            num(1, 1.0),
            P::NumCmp {
                col: ColumnId(0),
                op: CmpOp::Lt,
                value: 1.0,
            },
            P::CatEq {
                col: ColumnId(0),
                code: 1,
            },
            P::CatIn {
                col: ColumnId(0),
                codes: vec![1, 2],
            },
            P::BoolEq {
                col: ColumnId(0),
                value: true,
            },
            P::IsNull { col: ColumnId(0) },
            P::Not(Box::new(num(0, 1.0))),
            P::And(vec![num(0, 1.0), num(1, 2.0)]),
            P::Or(vec![num(0, 1.0), num(1, 2.0)]),
        ];
        let sigs: Vec<String> = preds.iter().map(predicate_signature).collect();
        let mut unique = sigs.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), sigs.len(), "collision in {sigs:?}");
    }

    #[test]
    fn and_or_arity_edge_cases() {
        assert_eq!(predicate_signature(&P::And(vec![])), "T");
        assert_eq!(predicate_signature(&P::Or(vec![])), "F");
        assert_eq!(
            predicate_signature(&P::Or(vec![num(0, 1.0)])),
            predicate_signature(&num(0, 1.0))
        );
    }

    #[test]
    fn float_bits_distinguish_close_values() {
        let a = num(0, 0.1 + 0.2);
        let b = num(0, 0.3);
        assert_ne!(predicate_signature(&a), predicate_signature(&b));
    }

    #[test]
    fn in_list_order_is_canonical() {
        let a = P::CatIn {
            col: ColumnId(2),
            codes: vec![3, 1, 2, 1],
        };
        let b = P::CatIn {
            col: ColumnId(2),
            codes: vec![1, 2, 3],
        };
        assert_eq!(predicate_signature(&a), predicate_signature(&b));
    }

    #[test]
    fn instance_signatures_never_alias_across_namespaces() {
        assert_eq!(instance_signature("census", 1000, 42), "census@1000#s42");
        assert_eq!(
            ingested_instance_signature("census", 1000, 0xABCD),
            "census@1000#f000000000000abcd"
        );
        // Same name and rows, seeded vs ingested: distinct key spaces.
        assert_ne!(
            instance_signature("d", 10, 7),
            ingested_instance_signature("d", 10, 7)
        );
        // Different content under the same name re-keys the instance.
        assert_ne!(
            ingested_instance_signature("d", 10, 1),
            ingested_instance_signature("d", 10, 2)
        );
    }

    #[test]
    fn reference_signatures_distinguish_kinds() {
        let q = ReferenceSpec::Query(num(0, 1.0));
        let sigs = [
            reference_signature(&ReferenceSpec::WholeTable),
            reference_signature(&ReferenceSpec::Complement),
            reference_signature(&q),
        ];
        assert_ne!(sigs[0], sigs[1]);
        assert_ne!(sigs[1], sigs[2]);
        assert_ne!(sigs[0], sigs[2]);
    }

    #[test]
    fn config_signature_tracks_result_affecting_knobs_only() {
        let base = SeeDbConfig::for_strategy(ExecutionStrategy::Sharing);
        let mut same = base.clone();
        same.engine_mode = seedb_engine::ExecMode::Scalar;
        same.sharing.parallelism = crate::Knob::Fixed(7);
        same.sharing.morsel_rows = crate::Knob::Fixed(13);
        assert_eq!(base.result_signature(), same.result_signature());
        // Pruning knobs are irrelevant for SHARING…
        let mut pruning_changed = base.clone();
        pruning_changed.pruning = PruningKind::Mab;
        pruning_changed.num_phases = 3;
        assert_eq!(base.result_signature(), pruning_changed.result_signature());
        // …but k / metric / strategy always matter.
        let mut k_changed = base.clone();
        k_changed.k = 3;
        assert_ne!(base.result_signature(), k_changed.result_signature());
        let mut metric_changed = base.clone();
        metric_changed.metric = seedb_metrics::DistanceKind::L1;
        assert_ne!(base.result_signature(), metric_changed.result_signature());
        // And for COMB they do matter.
        let comb = SeeDbConfig::for_strategy(ExecutionStrategy::Comb);
        let mut delta_changed = comb.clone();
        delta_changed.delta = 0.01;
        assert_ne!(comb.result_signature(), delta_changed.result_signature());
        let mut phases_changed = comb.clone();
        phases_changed.num_phases = 4;
        assert_ne!(comb.result_signature(), phases_changed.result_signature());
        // Probabilistic results never cross-contaminate deterministic
        // ones: the pruning kind is part of the response signature.
        let mut pruning_kind_changed = comb.clone();
        pruning_kind_changed.pruning = PruningKind::None;
        assert_ne!(
            comb.result_signature(),
            pruning_kind_changed.result_signature()
        );
        let mut mab = comb.clone();
        mab.pruning = PruningKind::Mab;
        assert_ne!(comb.result_signature(), mab.result_signature());
    }

    #[test]
    fn view_signature_ignores_enumeration_id() {
        use seedb_engine::AggFunc;
        let a = ViewSpec {
            id: 0,
            dim: ColumnId(1),
            measure: ColumnId(2),
            func: AggFunc::Avg,
        };
        let b = ViewSpec { id: 9, ..a };
        assert_eq!(a.signature(), b.signature());
        let c = ViewSpec {
            func: AggFunc::Sum,
            ..a
        };
        assert_ne!(a.signature(), c.signature());
    }
}
