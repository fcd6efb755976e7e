//! Batch-formation scheduling policies.
//!
//! A [`SchedulingPolicy`] is a total order on queued requests: its
//! `before` says which of two requests is served first, and its `rank` is
//! the same order as an integer key.
//! [`BatchScheduler`](crate::batch::BatchScheduler) keeps its queue in
//! submission order and, under EDF and priority, an ordered index of these
//! ranks: the first rank is the request admitted next, the last is the
//! preemption victim. Admission then proceeds greedily under the batch-size
//! and tile-capacity caps exactly as under FCFS. All three policies are
//! deterministic — ties always break by earlier arrival, then lower request
//! id — so a serving run is reproducible for a seed regardless of policy.
//!
//! * [`Fcfs`](SchedulingPolicy::Fcfs) — strict arrival order; the historical
//!   behavior and the default. The HyFlexPIM bit-identity contract applies
//!   to this policy.
//! * [`Edf`](SchedulingPolicy::Edf) — earliest deadline first against each
//!   request's absolute
//!   [`deadline_ns`](hyflex_pim::backend::InferenceRequest::deadline_ns);
//!   requests without a deadline (`f64::INFINITY`) sort last. Under
//!   overload this trades loose-SLO latency for tight-SLO attainment.
//! * [`Priority`](SchedulingPolicy::Priority) — strict priority classes
//!   (lower [`priority`](hyflex_pim::backend::InferenceRequest::priority)
//!   value first), FCFS within a class.

use hyflex_pim::backend::InferenceRequest;

/// A request's position in a policy's order, as integers: the policy's own
/// key, then arrival, then id. See [`SchedulingPolicy::rank`].
pub(crate) type Rank = (u64, u64, u64);

/// Maps a non-NaN `f64` onto a `u64` whose unsigned order is the float
/// order. `-0.0` and `+0.0` share one key, as they compare equal under
/// `==` and `<`; `f64::INFINITY` maps to the largest key of any non-NaN.
pub(crate) fn order_key(x: f64) -> u64 {
    // `x + 0.0` turns -0.0 into +0.0 and leaves every other value alone.
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Order in which queued requests are admitted into the next batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// First come, first served (the historical behavior and the default).
    #[default]
    Fcfs,
    /// Earliest (absolute) deadline first; deadline-less requests sort last.
    Edf,
    /// Strict priority classes, lower value first; FCFS within a class.
    Priority,
}

impl SchedulingPolicy {
    /// Every policy, in display order (used by sweep binaries and tests).
    pub const ALL: [SchedulingPolicy; 3] = [
        SchedulingPolicy::Fcfs,
        SchedulingPolicy::Edf,
        SchedulingPolicy::Priority,
    ];

    /// Stable lower-case name (accepted back by [`SchedulingPolicy::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulingPolicy::Fcfs => "fcfs",
            SchedulingPolicy::Edf => "edf",
            SchedulingPolicy::Priority => "priority",
        }
    }

    /// Parses a policy name (the inverse of [`SchedulingPolicy::name`]).
    pub fn parse(name: &str) -> Option<SchedulingPolicy> {
        match name.to_ascii_lowercase().as_str() {
            "fcfs" => Some(SchedulingPolicy::Fcfs),
            "edf" => Some(SchedulingPolicy::Edf),
            "priority" | "prio" => Some(SchedulingPolicy::Priority),
            _ => None,
        }
    }

    /// Whether `a` is served strictly before `b` under this policy.
    ///
    /// Total and deterministic for any pair of valid requests: the final
    /// tie-breaks are arrival time, then the (unique) request id. Deadlines
    /// are compared as floats, with `f64::INFINITY` (no SLO) sorting last;
    /// NaN deadlines are rejected at submission, so the comparison is total.
    pub(crate) fn before(&self, a: &InferenceRequest, b: &InferenceRequest) -> bool {
        let tiebreak = |a: &InferenceRequest, b: &InferenceRequest| {
            (a.arrival_ns, a.id) < (b.arrival_ns, b.id)
        };
        match self {
            SchedulingPolicy::Fcfs => tiebreak(a, b),
            SchedulingPolicy::Edf => {
                if a.deadline_ns != b.deadline_ns {
                    a.deadline_ns < b.deadline_ns
                } else {
                    tiebreak(a, b)
                }
            }
            SchedulingPolicy::Priority => {
                if a.priority != b.priority {
                    a.priority < b.priority
                } else {
                    tiebreak(a, b)
                }
            }
        }
    }

    /// `before` as an integer key: for requests with non-NaN arrivals and
    /// deadlines, `before(a, b)` holds exactly when `rank(a) < rank(b)`, and
    /// requests neither of which is before the other have equal ranks.
    pub(crate) fn rank(&self, request: &InferenceRequest) -> Rank {
        let primary = match self {
            SchedulingPolicy::Fcfs => 0,
            SchedulingPolicy::Edf => order_key(request.deadline_ns),
            SchedulingPolicy::Priority => u64::from(request.priority),
        };
        (primary, order_key(request.arrival_ns), request.id)
    }

    /// Index of the queued request this policy ranks *last* — the one every
    /// other queued request would be served before, and therefore the
    /// preemption victim when an admission gate must make room (see
    /// [`BatchScheduler::preempt_for`](crate::batch::BatchScheduler::preempt_for)).
    /// Among exact ties the earliest index wins. `None` for an empty queue.
    /// A linear scan, O(q): the scheduler uses it under FCFS, which keeps no
    /// rank index, and its tests use it as the oracle for the indexed
    /// victim.
    pub(crate) fn victim_index<'q>(
        &self,
        queue: impl IntoIterator<Item = &'q InferenceRequest>,
    ) -> Option<usize> {
        let mut worst: Option<(usize, &InferenceRequest)> = None;
        for (index, request) in queue.into_iter().enumerate() {
            if worst.is_none_or(|(_, w)| self.before(w, request)) {
                worst = Some((index, request));
            }
        }
        worst.map(|(index, _)| index)
    }
}

impl std::fmt::Display for SchedulingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn req(id: u64, arrival_ns: f64) -> InferenceRequest {
        InferenceRequest::new(id, arrival_ns, 128)
    }

    #[test]
    fn names_round_trip_and_reject_unknowns() {
        for policy in SchedulingPolicy::ALL {
            assert_eq!(SchedulingPolicy::parse(policy.name()), Some(policy));
            assert_eq!(policy.to_string(), policy.name());
        }
        assert_eq!(SchedulingPolicy::parse("EDF"), Some(SchedulingPolicy::Edf));
        assert_eq!(SchedulingPolicy::parse("lifo"), None);
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::Fcfs);
    }

    #[test]
    fn fcfs_orders_by_arrival_then_id() {
        let p = SchedulingPolicy::Fcfs;
        assert!(p.before(&req(0, 1.0), &req(1, 2.0)));
        assert!(!p.before(&req(1, 2.0), &req(0, 1.0)));
        // Same arrival: the unique id breaks the tie.
        assert!(p.before(&req(0, 1.0), &req(1, 1.0)));
        // Deadlines and priorities are ignored.
        assert!(p.before(
            &req(0, 1.0).with_deadline_ns(9e9).with_priority(9),
            &req(1, 2.0).with_deadline_ns(1.0)
        ));
    }

    #[test]
    fn edf_prefers_tight_deadlines_and_sorts_slo_less_last() {
        let p = SchedulingPolicy::Edf;
        let tight = req(5, 10.0).with_deadline_ns(100.0);
        let loose = req(1, 1.0).with_deadline_ns(500.0);
        let none = req(0, 0.0);
        assert!(p.before(&tight, &loose));
        assert!(p.before(&loose, &none));
        assert!(p.before(&tight, &none));
        // Equal deadlines fall back to arrival order.
        let tight2 = req(7, 20.0).with_deadline_ns(100.0);
        assert!(p.before(&tight, &tight2));
    }

    #[test]
    fn victim_index_picks_the_policy_worst_request() {
        let mut queue: VecDeque<InferenceRequest> = VecDeque::new();
        assert_eq!(SchedulingPolicy::Fcfs.victim_index(&queue), None);
        queue.push_back(req(0, 5.0).with_deadline_ns(100.0));
        queue.push_back(req(1, 1.0)); // no deadline
        queue.push_back(req(2, 9.0).with_deadline_ns(50.0).with_priority(3));
        // FCFS: the latest arrival is served last.
        assert_eq!(SchedulingPolicy::Fcfs.victim_index(&queue), Some(2));
        // EDF: the deadline-less request sorts last.
        assert_eq!(SchedulingPolicy::Edf.victim_index(&queue), Some(1));
        // Priority: the highest priority value sorts last.
        assert_eq!(SchedulingPolicy::Priority.victim_index(&queue), Some(2));
    }

    #[test]
    fn rank_order_is_the_before_order() {
        // Ties on every field the policies read, signed zeros and
        // deadline-less requests: `before` and `rank` must agree pairwise.
        let mut requests = Vec::new();
        let mut id = 0;
        for arrival in [-0.0, 0.0, 1.0, f64::INFINITY] {
            for deadline in [-1.0, -0.0, 0.0, 5.0, f64::INFINITY] {
                for priority in [0u8, 3] {
                    let r = req(id, arrival)
                        .with_deadline_ns(deadline)
                        .with_priority(priority);
                    // Twice: an exact tie under every policy.
                    requests.extend([r, r]);
                    id += 1;
                }
            }
        }
        for policy in SchedulingPolicy::ALL {
            for a in &requests {
                for b in &requests {
                    assert_eq!(
                        policy.before(a, b),
                        policy.rank(a) < policy.rank(b),
                        "{policy}: {a:?} vs {b:?}"
                    );
                }
            }
        }
        assert!(order_key(f64::NEG_INFINITY) < order_key(-1.0));
        assert!(order_key(-1.0) < order_key(-0.0));
        assert_eq!(order_key(-0.0), order_key(0.0));
        assert!(order_key(f64::MAX) < order_key(f64::INFINITY));
    }

    #[test]
    fn priority_is_strict_with_fcfs_within_a_class() {
        let p = SchedulingPolicy::Priority;
        let urgent_late = req(9, 90.0).with_priority(0);
        let casual_early = req(1, 1.0).with_priority(3);
        assert!(p.before(&urgent_late, &casual_early));
        let urgent_early = req(2, 2.0).with_priority(0);
        assert!(p.before(&urgent_early, &urgent_late));
    }
}
