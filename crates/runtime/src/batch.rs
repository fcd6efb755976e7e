//! Batched-inference scheduling onto a backend's layer tiles.
//!
//! Static weights stay resident in the device (for HyFlexPIM, the analog
//! crossbar banks), so a batch of requests shares one weight read-out
//! schedule; what each extra request consumes is **tile capacity** — the
//! per-layer dynamic data (Q, K, V, attention scores, FFN intermediate) must
//! all be resident in the layer's buffers while the batch is in flight.
//! [`BatchScheduler`] therefore admits requests into a batch until either
//! the configured batch-size cap or the backend's cell capacity would be
//! exceeded. The *order* of admission is the configured
//! [`SchedulingPolicy`] — FCFS (the default), earliest-deadline-first, or
//! strict priority classes — while the caps are policy-independent. The
//! scheduler is generic over the device: any [`Backend`] supplies its
//! per-tile budget ([`Backend::capacity`]) and the per-request footprint
//! ([`Backend::request_cells`]).

use crate::error::RuntimeError;
use crate::policy::{order_key, Rank, SchedulingPolicy};
use crate::Result;
use hyflex_pim::backend::Backend;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

pub use hyflex_pim::backend::InferenceRequest;

/// Batching policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Maximum number of requests per batch.
    pub max_batch_size: usize,
    /// How long a non-full batch may wait for more arrivals before
    /// launching, nanoseconds. `0` disables the window.
    ///
    /// The serving simulators give the window these semantics:
    ///
    /// * **Anchored at the oldest queued arrival.** The window deadline is
    ///   `max(ready, oldest_arrival + max_wait_ns)` where `ready` is when
    ///   the device could launch (`max(device_free, oldest_arrival)`). A
    ///   request that already waited out the window while the device was
    ///   busy launches the moment the device frees — a saturated device
    ///   never adds window delay.
    /// * **Non-clairvoyant.** A non-full batch launches at
    ///   `min(deadline, fill time)` — equivalently it waits
    ///   `min(max_wait_ns, time-to-fill)` past `ready` — judged only from
    ///   arrivals at or before "now". The timer never peeks at future
    ///   arrivals: the final batch of a run waits out its window exactly
    ///   like a mid-run batch whose next arrival lies beyond the deadline.
    /// * **Fill target from queue contents.** "Full" is judged against the
    ///   requests actually queued ([`BatchScheduler::fill_time_ns`]):
    ///   the batch-size cap, or the tile capacity at the queue's padded
    ///   (max-sequence) execution shape, whichever binds first.
    pub max_wait_ns: f64,
    /// Processing units provisioned per layer pipeline stage; scales the
    /// tile capacity available to one batch.
    pub pus_per_layer: usize,
    /// Order in which queued requests are admitted into a batch.
    pub policy: SchedulingPolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch_size: 16,
            max_wait_ns: 2e6, // 2 ms batching window
            pus_per_layer: 1,
            policy: SchedulingPolicy::Fcfs,
        }
    }
}

/// A group of requests admitted for one pipelined execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Admitted requests in the order the scheduling policy served them
    /// (arrival order under FCFS; deadline or priority order under EDF and
    /// priority).
    pub requests: Vec<InferenceRequest>,
    /// Tile cells the batch occupies in one layer tile, with every request
    /// padded to the batch's longest sequence (the executed shape).
    pub cells_used: usize,
    /// Longest sequence in the batch (the execution shape).
    pub max_seq_len: usize,
}

impl Batch {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Tokens actually present across the batch's requests.
    pub fn actual_token_count(&self) -> usize {
        self.requests.iter().map(|r| r.seq_len).sum()
    }

    /// Tokens the padded execution shape processes: every request padded to
    /// the batch's longest sequence.
    pub fn padded_token_count(&self) -> usize {
        self.len() * self.max_seq_len
    }
}

/// Policy-ordered batch former bounded by batch size and the backend's tile
/// capacity.
///
/// Queued requests are stored in submission order, each tagged with a
/// strictly increasing submission sequence number. Under EDF and priority
/// the scheduler also keeps every queued request's policy rank (an integer
/// key in the policy's order) in an ordered set, so it picks the next
/// request and the preemption victim without scanning the queue. FCFS keeps
/// no such index: it serves the front of the queue. The first
/// [`shed_doomed`](BatchScheduler::shed_doomed) call builds a second index,
/// the finite deadlines of each request shape, which later submissions and
/// removals keep in step; a scheduler that never sheds never builds it.
///
/// Cost per operation, for a queue of `q` requests and a batch of `B`:
///
/// | operation | FCFS | EDF / priority |
/// |---|---|---|
/// | [`submit`](BatchScheduler::submit) | O(1) | O(log q) |
/// | [`next_batch`](BatchScheduler::next_batch) | O(B) | O(B·log q) + one `VecDeque::remove` per request |
/// | [`preempt_for`](BatchScheduler::preempt_for) | O(q) scan | O(log q) + one `VecDeque::remove` |
/// | [`shed_doomed`](BatchScheduler::shed_doomed) | one estimate per shape, O(log q) per shape when nothing is doomed, O(q + k·log q) to shed `k` | same |
/// | [`fill_time_ns`](BatchScheduler::fill_time_ns) | O(1) memoized, O(B) after a removal | same |
/// | [`front_arrival_ns`](BatchScheduler::front_arrival_ns), [`queue_len`](BatchScheduler::queue_len) | O(1) | O(1) |
///
/// A `VecDeque::remove` moves the shorter side of the queue, a memmove of
/// at most q/2 entries. Once built, the shedding index adds O(log q) to
/// every submission and removal of a request with a finite deadline.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    config: SchedulerConfig,
    backend: Arc<dyn Backend>,
    capacity_cells: usize,
    /// Queued requests in submission order with their sequence numbers,
    /// which increase strictly front to back (so the queue is
    /// binary-searchable by sequence number).
    queue: VecDeque<(u64, InferenceRequest)>,
    /// Sequence number of the next submission.
    next_seq: u64,
    /// EDF and priority: `(rank, seq)` of every queued request. The first
    /// entry is the request served next. `None` under FCFS.
    order: Option<BTreeSet<(Rank, u64)>>,
    /// Shedding index: for each `seq_len`, `(order_key(deadline), seq)` of
    /// every queued request with a finite deadline. Built by the first
    /// [`BatchScheduler::shed_doomed`] call.
    shed_index: Option<BTreeMap<usize, BTreeSet<(u64, u64)>>>,
    /// Memo of [`BatchScheduler::fill_time_ns`]; `None` when stale.
    fill_time: Option<Option<f64>>,
}

impl BatchScheduler {
    /// Builds a scheduler admitting requests against `backend`'s tile
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a zero batch size, zero
    /// PUs per layer, or a negative/NaN batching window.
    pub fn for_backend(backend: Arc<dyn Backend>, config: SchedulerConfig) -> Result<Self> {
        if config.max_batch_size == 0 {
            return Err(RuntimeError::InvalidConfig(
                "max_batch_size must be at least 1".to_string(),
            ));
        }
        if config.pus_per_layer == 0 {
            return Err(RuntimeError::InvalidConfig(
                "pus_per_layer must be at least 1".to_string(),
            ));
        }
        if config.max_wait_ns.is_nan() || config.max_wait_ns < 0.0 {
            return Err(RuntimeError::InvalidConfig(format!(
                "max_wait_ns {} must be non-negative",
                config.max_wait_ns
            )));
        }
        let capacity_cells = config.pus_per_layer * backend.capacity();
        Ok(BatchScheduler {
            config,
            backend,
            capacity_cells,
            queue: VecDeque::new(),
            next_seq: 0,
            order: (config.policy != SchedulingPolicy::Fcfs).then(BTreeSet::new),
            shed_index: None,
            fill_time: Some(None),
        })
    }

    /// The batching policy.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Tile-cell capacity of one layer tile (the per-batch budget).
    pub fn capacity_cells(&self) -> usize {
        self.capacity_cells
    }

    /// Tile cells one request of length `seq_len` occupies per layer tile.
    pub fn request_cells(&self, seq_len: usize) -> usize {
        self.backend.request_cells(seq_len)
    }

    /// Number of queued requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Arrival time of the front-of-queue (first-submitted still-queued)
    /// request, if any, in O(1). Batch formation, shedding and preemption
    /// remove requests without reordering the queue, so when requests are
    /// submitted in non-decreasing arrival order (as the serving engine
    /// does) the front request is the oldest queued one.
    pub fn front_arrival_ns(&self) -> Option<f64> {
        self.queue.front().map(|(_, r)| r.arrival_ns)
    }

    /// Deadline-aware load shedding: removes and returns every queued
    /// request that can no longer meet its deadline, judged against the
    /// earliest possible completion `horizon_ns +
    /// service_estimate_ns(seq_len)`. `horizon_ns` is the earliest the
    /// next batch could launch (for a busy device, when it frees);
    /// `service_estimate_ns` is the device's *single-request* makespan for
    /// the given sequence length — an optimistic bound, so only requests
    /// that would miss even an immediate solo launch are shed. Requests
    /// without a deadline (`f64::INFINITY`) are never shed. The shed
    /// requests come back in submission order, and the relative queue order
    /// of survivors is preserved.
    ///
    /// `service_estimate_ns` must be a pure function of `seq_len`: it is
    /// called once per queued shape that has a finite deadline, and only
    /// the doomed prefix of each shape's deadline order is visited.
    pub fn shed_doomed(
        &mut self,
        horizon_ns: f64,
        mut service_estimate_ns: impl FnMut(usize) -> f64,
    ) -> Vec<InferenceRequest> {
        let queue = &self.queue;
        let shed_index = self.shed_index.get_or_insert_with(|| {
            let mut shed_index: BTreeMap<usize, BTreeSet<(u64, u64)>> = BTreeMap::new();
            for (seq, request) in queue {
                if request.deadline_ns.is_finite() {
                    shed_index
                        .entry(request.seq_len)
                        .or_default()
                        .insert((order_key(request.deadline_ns), *seq));
                }
            }
            shed_index
        });
        let mut doomed: Vec<u64> = Vec::new();
        for (&seq_len, deadlines) in shed_index.iter_mut() {
            if deadlines.is_empty() {
                continue;
            }
            let completion = horizon_ns + service_estimate_ns(seq_len);
            if completion.is_nan() {
                continue;
            }
            // `deadline < completion` is a key comparison (finite deadline,
            // non-NaN completion), so the doomed requests of this shape are
            // a prefix of its deadline order.
            let completion = order_key(completion);
            while let Some(&(deadline, seq)) = deadlines.first() {
                if deadline >= completion {
                    break;
                }
                deadlines.pop_first();
                doomed.push(seq);
            }
        }
        if doomed.is_empty() {
            return Vec::new();
        }
        doomed.sort_unstable();
        // Partition from the first doomed position: survivors slide forward
        // in order, the doomed collect at the back.
        let first = self.position(doomed[0]).unwrap_or(0);
        let mut pending = doomed.iter().peekable();
        let mut kept = first;
        for read in first..self.queue.len() {
            if pending.next_if_eq(&&self.queue[read].0).is_none() {
                self.queue.swap(kept, read);
                kept += 1;
            }
        }
        let mut shed: Vec<(u64, InferenceRequest)> = self.queue.drain(kept..).collect();
        shed.sort_unstable_by_key(|&(seq, _)| seq);
        if let Some(order) = &mut self.order {
            for (seq, request) in &shed {
                order.remove(&(self.config.policy.rank(request), *seq));
            }
        }
        self.fill_time = None;
        shed.into_iter().map(|(_, request)| request).collect()
    }

    /// Preemption hook for bounded-queue admission: if `incoming` is
    /// strictly more urgent (in [`SchedulingPolicy`] order) than the
    /// least-urgent queued request, evicts and returns that victim so the
    /// caller can admit `incoming` in its place; otherwise leaves the queue
    /// untouched and returns `None`. Under FCFS the incoming request (the
    /// latest arrival) is never more urgent than any queued one, so FCFS
    /// never preempts — preemption is meaningful for EDF (a tight-deadline
    /// newcomer displaces a deadline-less request) and priority classes.
    /// Among queued requests that tie exactly for least urgent, the
    /// earliest submitted is the victim.
    pub fn preempt_for(&mut self, incoming: &InferenceRequest) -> Option<InferenceRequest> {
        let victim = match &self.order {
            None => (self.config.policy).victim_index(self.queue.iter().map(|(_, r)| r))?,
            Some(order) => {
                let &(rank, _) = order.last()?;
                let &(_, seq) = order.range((rank, 0)..).next()?;
                self.position(seq)?
            }
        };
        if self.config.policy.before(incoming, &self.queue[victim].1) {
            self.take(victim)
        } else {
            None
        }
    }

    /// The earliest time at which the queue held a "full" batch, or `None`
    /// if it never has: scanning queued requests in submission order, the
    /// first request at which the running count reaches the batch-fill
    /// target — `min(max_batch_size, capacity / request_cells(max seq so
    /// far))`, i.e. the target implied by the queue's actual padded
    /// execution shape, not by any nominal request shape. Because the
    /// running max sequence only grows, the target only shrinks, so the
    /// scan is exact and exits after at most `max_batch_size` requests.
    ///
    /// The result is memoized (hence `&mut self`): a submission keeps a
    /// found fill time (it only appends behind the scanned prefix), and any
    /// removal clears it.
    ///
    /// The serving simulators use this as the batching window's fill
    /// signal: a non-full batch (`None`) waits out the window, a full one
    /// launches at `max(ready, fill_time)`.
    pub fn fill_time_ns(&mut self) -> Option<f64> {
        if self.fill_time.is_none() {
            self.fill_time = Some(self.scan_fill_time());
        }
        self.fill_time.flatten()
    }

    fn scan_fill_time(&self) -> Option<f64> {
        let mut max_seq_len = 0usize;
        let mut fill_time = f64::NEG_INFINITY;
        for (index, (_, request)) in self.queue.iter().enumerate() {
            max_seq_len = max_seq_len.max(request.seq_len);
            fill_time = fill_time.max(request.arrival_ns);
            let capacity_batch = (self.capacity_cells / self.request_cells(max_seq_len)).max(1);
            let target = self.config.max_batch_size.min(capacity_batch);
            if index + 1 >= target {
                return Some(fill_time);
            }
        }
        None
    }

    /// Enqueues a request.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::CapacityExceeded`] when the request alone
    /// would not fit one layer tile, and [`RuntimeError::InvalidConfig`] for
    /// an empty sequence. (Sequence lengths beyond the model's training MSL
    /// are allowed: like the perf model's figure sweeps, the scheduler
    /// treats `seq_len` as an analytic shape.)
    pub fn submit(&mut self, request: InferenceRequest) -> Result<()> {
        if request.seq_len == 0 {
            return Err(RuntimeError::InvalidConfig(format!(
                "request {} has an empty sequence",
                request.id
            )));
        }
        if request.arrival_ns.is_nan() {
            return Err(RuntimeError::InvalidConfig(format!(
                "request {} has a NaN arrival time",
                request.id
            )));
        }
        if request.deadline_ns.is_nan() {
            return Err(RuntimeError::InvalidConfig(format!(
                "request {} has a NaN deadline (use f64::INFINITY for no SLO)",
                request.id
            )));
        }
        let cells = self.request_cells(request.seq_len);
        if cells > self.capacity_cells {
            return Err(RuntimeError::CapacityExceeded(format!(
                "request {} needs {cells} tile cells but the layer tile has {} \
                 (raise pus_per_layer or shorten the sequence)",
                request.id, self.capacity_cells
            )));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(order) = &mut self.order {
            order.insert((self.config.policy.rank(&request), seq));
        }
        if let Some(shed_index) = &mut self.shed_index {
            if request.deadline_ns.is_finite() {
                (shed_index.entry(request.seq_len).or_default())
                    .insert((order_key(request.deadline_ns), seq));
            }
        }
        self.queue.push_back((seq, request));
        // Appending leaves the scanned prefix alone, so a found fill time
        // stands; a queue that was not full may have just filled.
        if self.fill_time == Some(None) {
            self.fill_time = None;
        }
        Ok(())
    }

    /// Queue position of the request with sequence number `seq`.
    fn position(&self, seq: u64) -> Option<usize> {
        self.queue.binary_search_by_key(&seq, |&(s, _)| s).ok()
    }

    /// Queue position of the request the policy would serve next, if any:
    /// the front under FCFS, the first rank otherwise.
    fn next_candidate(&self) -> Option<usize> {
        match &self.order {
            None => (!self.queue.is_empty()).then_some(0),
            Some(order) => self.position(order.first()?.1),
        }
    }

    /// Removes and returns the request at queue position `position`,
    /// keeping both indexes and the fill-time memo in step.
    fn take(&mut self, position: usize) -> Option<InferenceRequest> {
        let (seq, request) = self.queue.remove(position)?;
        if let Some(order) = &mut self.order {
            order.remove(&(self.config.policy.rank(&request), seq));
        }
        if let Some(shed_index) = &mut self.shed_index {
            if request.deadline_ns.is_finite() {
                if let Some(deadlines) = shed_index.get_mut(&request.seq_len) {
                    deadlines.remove(&(order_key(request.deadline_ns), seq));
                }
            }
        }
        self.fill_time = None;
        Some(request)
    }

    /// Forms the next batch in policy order: admits queued requests while
    /// both the batch-size cap and the tile capacity hold. Returns `None`
    /// when the queue is empty. A returned batch always satisfies
    /// `batch.len() <= max_batch_size` and `batch.cells_used <= capacity`.
    ///
    /// The batch executes padded to its longest sequence (that is the shape
    /// the device model evaluates), so admission charges *every* request the
    /// cells of the running maximum sequence length — a short request joining
    /// a long batch costs the long shape. Admission stops at the first
    /// policy-ordered request that no longer fits (no skip-ahead), so FCFS
    /// keeps its strict arrival order and EDF/priority never starve the
    /// request they rank most urgent.
    pub fn next_batch(&mut self) -> Option<Batch> {
        self.queue.front()?;
        let mut requests: Vec<InferenceRequest> = Vec::new();
        let mut max_seq_len = 0usize;
        while requests.len() < self.config.max_batch_size {
            let Some(candidate) = self.next_candidate() else {
                break;
            };
            let prospective_max = max_seq_len.max(self.queue[candidate].1.seq_len);
            let prospective_cells = (requests.len() + 1) * self.request_cells(prospective_max);
            if prospective_cells > self.capacity_cells {
                break;
            }
            max_seq_len = prospective_max;
            let Some(request) = self.take(candidate) else {
                break;
            };
            requests.push(request);
        }
        debug_assert!(!requests.is_empty(), "submit() rejects oversized requests");
        let cells_used = requests.len() * self.request_cells(max_seq_len);
        Some(Batch {
            requests,
            cells_used,
            max_seq_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_baselines::NonPim;
    use hyflex_pim::backend::HyFlexPim;
    use hyflex_pim::HyFlexPimConfig;
    use hyflex_transformer::ModelConfig;

    /// A scheduler admitting against the paper chip serving BERT-Large
    /// (capacity accounting is independent of the SLC rate).
    fn hyflexpim_scheduler(config: SchedulerConfig) -> Result<BatchScheduler> {
        let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.0)?;
        BatchScheduler::for_backend(Arc::new(backend), config)
    }

    fn scheduler(max_batch_size: usize, pus_per_layer: usize) -> BatchScheduler {
        hyflexpim_scheduler(SchedulerConfig {
            max_batch_size,
            max_wait_ns: 0.0,
            pus_per_layer,
            ..SchedulerConfig::default()
        })
        .unwrap()
    }

    fn request(id: u64, seq_len: usize) -> InferenceRequest {
        InferenceRequest::new(id, id as f64, seq_len)
    }

    #[test]
    fn construction_validates_policy() {
        for bad in [
            SchedulerConfig {
                max_batch_size: 0,
                ..SchedulerConfig::default()
            },
            SchedulerConfig {
                pus_per_layer: 0,
                ..SchedulerConfig::default()
            },
            SchedulerConfig {
                max_wait_ns: -1.0,
                ..SchedulerConfig::default()
            },
        ] {
            assert!(hyflexpim_scheduler(bad).is_err());
        }
        assert!(hyflexpim_scheduler(SchedulerConfig::default()).is_ok());
    }

    #[test]
    fn hyflexpim_scheduler_charges_the_digital_cell_budget() {
        // Over the HyFlexPIM backend the scheduler charges exactly the
        // digital-PIM cell budget of the layer's PUs.
        let hw = HyFlexPimConfig::paper_default();
        let s = scheduler(4, 2);
        assert_eq!(s.capacity_cells(), 2 * hw.digital_cells_per_pu());
        let chip = hyflex_pim::arch::Chip::new(hw).unwrap();
        assert_eq!(
            s.request_cells(512),
            chip.digital_cells_for_layer(&ModelConfig::bert_large(), 512)
        );
    }

    #[test]
    fn generic_scheduler_admits_against_the_backend_budget() {
        let backend = Arc::new(NonPim::new(ModelConfig::bert_large()));
        let capacity = backend.capacity();
        let mut s = BatchScheduler::for_backend(backend, SchedulerConfig::default()).unwrap();
        assert_eq!(s.capacity_cells(), capacity);
        for id in 0..20 {
            s.submit(request(id, 128)).unwrap();
        }
        while let Some(batch) = s.next_batch() {
            assert!(batch.cells_used <= s.capacity_cells());
            assert!(batch.len() <= 16);
        }
    }

    #[test]
    fn batches_never_exceed_size_cap_or_tile_capacity() {
        let mut s = scheduler(4, 1);
        // Mixed sequence lengths, far more requests than one batch holds.
        for id in 0..64 {
            let seq = [64usize, 128, 384, 512][id as usize % 4];
            s.submit(request(id, seq)).unwrap();
        }
        let mut drained = 0;
        let mut last_id = None;
        while let Some(batch) = s.next_batch() {
            assert!(batch.len() <= 4);
            assert!(!batch.is_empty());
            assert!(
                batch.cells_used <= s.capacity_cells(),
                "batch uses {} of {} cells",
                batch.cells_used,
                s.capacity_cells()
            );
            // Capacity is charged at the padded (max-seq) execution shape.
            let recomputed = batch.len() * s.request_cells(batch.max_seq_len);
            assert_eq!(batch.cells_used, recomputed);
            assert_eq!(
                batch.max_seq_len,
                batch.requests.iter().map(|r| r.seq_len).max().unwrap()
            );
            // FCFS: ids strictly increase across and within batches.
            for r in &batch.requests {
                assert!(last_id.is_none_or(|prev| r.id > prev));
                last_id = Some(r.id);
            }
            drained += batch.len();
        }
        assert_eq!(drained, 64);
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn padding_waste_accounts_for_mixed_lengths() {
        let mut s = scheduler(4, 2);
        for (id, seq) in [64usize, 128, 256, 64].into_iter().enumerate() {
            s.submit(request(id as u64, seq)).unwrap();
        }
        let batch = s.next_batch().unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.actual_token_count(), 64 + 128 + 256 + 64);
        assert_eq!(batch.padded_token_count(), 4 * 256);

        // A uniform batch wastes nothing.
        let mut s = scheduler(2, 1);
        s.submit(request(0, 128)).unwrap();
        s.submit(request(1, 128)).unwrap();
        let batch = s.next_batch().unwrap();
        assert_eq!(batch.actual_token_count(), batch.padded_token_count());
    }

    #[test]
    fn capacity_binds_before_batch_size_for_long_sequences() {
        // At N = 8192 one BERT-Large request needs multiple PUs' worth of
        // digital cells, so a 1-PU tile rejects it outright...
        let mut one_pu = scheduler(16, 1);
        let err = one_pu.submit(request(0, 8192)).unwrap_err();
        assert!(matches!(err, RuntimeError::CapacityExceeded(_)));
        // ...while a 8-PU tile accepts it but fits fewer than max_batch_size
        // per batch.
        let mut wide = scheduler(16, 8);
        for id in 0..4 {
            wide.submit(request(id, 8192)).unwrap();
        }
        let batch = wide.next_batch().unwrap();
        assert!(batch.len() < 4, "capacity should split the batch");
        assert!(batch.cells_used <= wide.capacity_cells());
    }

    #[test]
    fn submit_rejects_degenerate_sequences() {
        let mut s = scheduler(4, 1);
        assert!(s.submit(request(0, 0)).is_err());
        assert!(s
            .submit(request(1, 128).with_deadline_ns(f64::NAN))
            .is_err());
        assert!(s.submit(InferenceRequest::new(2, f64::NAN, 128)).is_err());
        assert_eq!(s.queue_len(), 0);
        assert!(s.next_batch().is_none());
        assert!(s.front_arrival_ns().is_none());
        assert!(s.fill_time_ns().is_none());
    }

    #[test]
    fn shed_doomed_drops_only_unmeetable_deadlines() {
        let mut s = scheduler(8, 1);
        s.submit(request(0, 128)).unwrap(); // no deadline: never shed
        s.submit(request(1, 128).with_deadline_ns(1_000.0)).unwrap();
        s.submit(request(2, 128).with_deadline_ns(50_000.0))
            .unwrap();
        s.submit(request(3, 128).with_deadline_ns(10_000.0))
            .unwrap();
        // Launching at t = 5 000 with a 10 000 ns service estimate completes
        // at 15 000: requests 1 (deadline 1 000) and 3 (deadline 10 000)
        // cannot make it; 2 (deadline 50 000) and the SLO-less 0 survive.
        let shed = s.shed_doomed(5_000.0, |_| 10_000.0);
        let shed_ids: Vec<u64> = shed.iter().map(|r| r.id).collect();
        assert_eq!(shed_ids, vec![1, 3]);
        assert_eq!(s.queue_len(), 2);
        let batch = s.next_batch().unwrap();
        let kept_ids: Vec<u64> = batch.requests.iter().map(|r| r.id).collect();
        assert_eq!(kept_ids, vec![0, 2], "survivor order preserved");
        // Nothing doomed: the fast path returns empty without reordering.
        let mut s = scheduler(8, 1);
        s.submit(request(0, 128).with_deadline_ns(1e9)).unwrap();
        assert!(s.shed_doomed(0.0, |_| 1.0).is_empty());
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn preemption_evicts_the_policy_worst_request_only_when_more_urgent() {
        // EDF: a tight-deadline newcomer displaces the deadline-less victim.
        let mut s = policy_scheduler(SchedulingPolicy::Edf, 4);
        s.submit(request(0, 128)).unwrap(); // no deadline
        s.submit(request(1, 128).with_deadline_ns(5_000.0)).unwrap();
        let urgent = request(2, 128).with_deadline_ns(1_000.0);
        let victim = s.preempt_for(&urgent).unwrap();
        assert_eq!(victim.id, 0);
        assert_eq!(s.queue_len(), 1);
        // A looser newcomer than every queued request preempts nothing.
        let loose = request(3, 128).with_deadline_ns(9e9);
        assert!(s.preempt_for(&loose).is_none());
        assert_eq!(s.queue_len(), 1);
        // FCFS: the newcomer is always the policy-worst, so never preempts.
        let mut s = policy_scheduler(SchedulingPolicy::Fcfs, 4);
        s.submit(request(0, 128)).unwrap();
        assert!(s.preempt_for(&request(9, 128)).is_none());
        // Empty queue: nothing to evict.
        let mut s = policy_scheduler(SchedulingPolicy::Edf, 4);
        assert!(s.preempt_for(&urgent).is_none());
    }

    fn policy_scheduler(policy: SchedulingPolicy, max_batch_size: usize) -> BatchScheduler {
        hyflexpim_scheduler(SchedulerConfig {
            max_batch_size,
            max_wait_ns: 0.0,
            policy,
            ..SchedulerConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn edf_serves_tight_deadlines_first_and_slo_less_last() {
        let mut s = policy_scheduler(SchedulingPolicy::Edf, 2);
        s.submit(request(0, 128)).unwrap(); // no deadline
        s.submit(request(1, 128).with_deadline_ns(9_000.0)).unwrap();
        s.submit(request(2, 128).with_deadline_ns(1_000.0)).unwrap();
        s.submit(request(3, 128).with_deadline_ns(5_000.0)).unwrap();
        let ids: Vec<Vec<u64>> = std::iter::from_fn(|| s.next_batch())
            .map(|b| b.requests.iter().map(|r| r.id).collect())
            .collect();
        assert_eq!(ids, vec![vec![2, 3], vec![1, 0]]);
    }

    #[test]
    fn priority_classes_are_strict_with_fcfs_within_a_class() {
        let mut s = policy_scheduler(SchedulingPolicy::Priority, 2);
        s.submit(request(0, 128).with_priority(2)).unwrap();
        s.submit(request(1, 128).with_priority(0)).unwrap();
        s.submit(request(2, 128).with_priority(1)).unwrap();
        s.submit(request(3, 128).with_priority(0)).unwrap();
        let ids: Vec<Vec<u64>> = std::iter::from_fn(|| s.next_batch())
            .map(|b| b.requests.iter().map(|r| r.id).collect())
            .collect();
        assert_eq!(ids, vec![vec![1, 3], vec![2, 0]]);
    }

    #[test]
    fn policy_batches_respect_the_same_caps_as_fcfs() {
        for policy in SchedulingPolicy::ALL {
            let mut s = policy_scheduler(policy, 4);
            for id in 0..32 {
                let seq = [64usize, 512, 128, 384][id as usize % 4];
                let r = request(id, seq)
                    .with_deadline_ns(1e6 - id as f64)
                    .with_priority((id % 3) as u8);
                s.submit(r).unwrap();
            }
            let mut drained = 0;
            while let Some(batch) = s.next_batch() {
                assert!(batch.len() <= 4);
                assert!(batch.cells_used <= s.capacity_cells());
                assert_eq!(
                    batch.cells_used,
                    batch.len() * s.request_cells(batch.max_seq_len)
                );
                drained += batch.len();
            }
            assert_eq!(drained, 32, "{policy} dropped requests");
        }
    }

    #[test]
    fn fill_time_memo_follows_submissions_and_removals() {
        let mut s = scheduler(2, 1);
        s.submit(request(0, 64)).unwrap();
        assert_eq!(s.fill_time_ns(), None);
        s.submit(request(1, 64)).unwrap();
        assert_eq!(s.fill_time_ns(), Some(1.0));
        // A later submission keeps the found fill time.
        s.submit(request(2, 64)).unwrap();
        assert_eq!(s.fill_time_ns(), Some(1.0));
        // A removal clears it: the queue now fills at request 3.
        assert_eq!(s.next_batch().unwrap().len(), 2);
        assert_eq!(s.fill_time_ns(), None);
        s.submit(request(3, 64)).unwrap();
        assert_eq!(s.fill_time_ns(), Some(3.0));
    }

    #[test]
    fn exact_ties_preempt_the_earliest_submitted_and_serve_it_first() {
        // Three requests equal in every field the policy reads: the victim
        // and the next candidate are both the earliest submission, as the
        // linear scans pick.
        for policy in [SchedulingPolicy::Edf, SchedulingPolicy::Priority] {
            let mut s = policy_scheduler(policy, 4);
            let twin = request(7, 128).with_deadline_ns(9_000.0).with_priority(2);
            s.submit(request(1, 128).with_deadline_ns(1_000.0)).unwrap();
            s.submit(twin).unwrap();
            for seq_len in [64, 256] {
                s.submit(InferenceRequest { seq_len, ..twin }).unwrap();
            }
            let victim = s
                .preempt_for(&request(9, 128).with_deadline_ns(0.0))
                .unwrap();
            assert_eq!((victim.id, victim.seq_len), (7, 128), "{policy}");
            let batch = s.next_batch().unwrap();
            let served: Vec<_> = batch.requests.iter().map(|r| (r.id, r.seq_len)).collect();
            assert_eq!(served, vec![(1, 128), (7, 64), (7, 256)], "{policy}");
        }
    }

    #[test]
    fn shedding_returns_requests_in_submission_order_across_shapes() {
        let mut s = policy_scheduler(SchedulingPolicy::Edf, 8);
        for (id, (seq, deadline)) in [
            (64, 900.0),
            (128, 100.0),
            (64, f64::INFINITY),
            (128, 5_000.0),
            (64, 200.0),
        ]
        .into_iter()
        .enumerate()
        {
            s.submit(request(id as u64, seq).with_deadline_ns(deadline))
                .unwrap();
        }
        // 64-token requests finish at 1 000, 128-token ones at 2 000.
        let shed = s.shed_doomed(0.0, |seq| seq as f64 / 64.0 * 1_000.0);
        assert_eq!(shed.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1, 4]);
        // The index follows later submissions and removals.
        s.submit(request(5, 64).with_deadline_ns(1_500.0)).unwrap();
        let shed = s.shed_doomed(1_000.0, |seq| seq as f64 / 64.0 * 1_000.0);
        assert_eq!(shed.iter().map(|r| r.id).collect::<Vec<_>>(), vec![5]);
        let rest: Vec<u64> = s
            .next_batch()
            .unwrap()
            .requests
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(rest, vec![3, 2]);
        assert!(s.shed_doomed(1e12, |_| 0.0).is_empty());
    }

    /// The scheduler as it was before its queue was indexed: linear-scan
    /// candidate and victim, the scan-then-rebuild shed and the unmemoized
    /// fill scan. The equivalence property below holds the indexed
    /// scheduler to it step by step.
    struct Reference {
        config: SchedulerConfig,
        backend: Arc<dyn Backend>,
        capacity_cells: usize,
        queue: VecDeque<InferenceRequest>,
    }

    impl Reference {
        fn new(s: &BatchScheduler) -> Self {
            Reference {
                config: s.config,
                backend: Arc::clone(&s.backend),
                capacity_cells: s.capacity_cells,
                queue: VecDeque::new(),
            }
        }

        fn request_cells(&self, seq_len: usize) -> usize {
            self.backend.request_cells(seq_len)
        }

        fn next_candidate(&self) -> Option<usize> {
            match self.config.policy {
                SchedulingPolicy::Fcfs => (!self.queue.is_empty()).then_some(0),
                policy => {
                    let mut best: Option<usize> = None;
                    for (index, request) in self.queue.iter().enumerate() {
                        if best.is_none_or(|b| policy.before(request, &self.queue[b])) {
                            best = Some(index);
                        }
                    }
                    best
                }
            }
        }

        fn next_batch(&mut self) -> Option<Batch> {
            self.queue.front()?;
            let mut requests: Vec<InferenceRequest> = Vec::new();
            let mut max_seq_len = 0usize;
            while requests.len() < self.config.max_batch_size {
                let Some(candidate) = self.next_candidate() else {
                    break;
                };
                let prospective_max = max_seq_len.max(self.queue[candidate].seq_len);
                let prospective_cells = (requests.len() + 1) * self.request_cells(prospective_max);
                if prospective_cells > self.capacity_cells {
                    break;
                }
                max_seq_len = prospective_max;
                requests.extend(self.queue.remove(candidate));
            }
            let cells_used = requests.len() * self.request_cells(max_seq_len);
            Some(Batch {
                requests,
                cells_used,
                max_seq_len,
            })
        }

        fn preempt_for(&mut self, incoming: &InferenceRequest) -> Option<InferenceRequest> {
            let policy = self.config.policy;
            let victim = policy.victim_index(&self.queue)?;
            if policy.before(incoming, &self.queue[victim]) {
                self.queue.remove(victim)
            } else {
                None
            }
        }

        fn shed_doomed(
            &mut self,
            horizon_ns: f64,
            mut service_estimate_ns: impl FnMut(usize) -> f64,
        ) -> Vec<InferenceRequest> {
            let mut shed = Vec::new();
            let mut kept = VecDeque::new();
            for request in self.queue.drain(..) {
                if request.deadline_ns.is_finite()
                    && request.deadline_ns < horizon_ns + service_estimate_ns(request.seq_len)
                {
                    shed.push(request);
                } else {
                    kept.push_back(request);
                }
            }
            self.queue = kept;
            shed
        }

        fn fill_time_ns(&self) -> Option<f64> {
            let mut max_seq_len = 0usize;
            let mut fill_time = f64::NEG_INFINITY;
            for (index, request) in self.queue.iter().enumerate() {
                max_seq_len = max_seq_len.max(request.seq_len);
                fill_time = fill_time.max(request.arrival_ns);
                let capacity_batch = (self.capacity_cells / self.request_cells(max_seq_len)).max(1);
                if index + 1 >= self.config.max_batch_size.min(capacity_batch) {
                    return Some(fill_time);
                }
            }
            None
        }
    }

    /// Every field of a request, floats as bits (so `-0.0` and `+0.0`
    /// differ).
    fn fields(r: &InferenceRequest) -> (u64, u64, u64, usize, u8) {
        (
            r.id,
            r.arrival_ns.to_bits(),
            r.deadline_ns.to_bits(),
            r.seq_len,
            r.priority,
        )
    }

    fn all_fields<'r>(
        requests: impl IntoIterator<Item = &'r InferenceRequest>,
    ) -> Vec<(u64, u64, u64, usize, u8)> {
        requests.into_iter().map(fields).collect()
    }

    /// Draws a request from a small value set full of ties: repeated ids,
    /// equal arrivals, signed zeros, deadline-less requests and three
    /// shapes (the longest binds the tile capacity).
    fn drawn_request(next_id: &mut u64, a: u64, b: u64) -> InferenceRequest {
        const SEQ_LENS: [usize; 3] = [64, 512, 4096];
        const DEADLINES: [f64; 8] = [
            -0.0,
            0.0,
            300.0,
            300.0,
            900.0,
            2_000.0,
            f64::INFINITY,
            f64::INFINITY,
        ];
        const ARRIVALS: [f64; 6] = [-0.0, 0.0, 100.0, 100.0, 200.0, 700.0];
        // One draw in four repeats the previous id.
        if !a.is_multiple_of(4) {
            *next_id += 1;
        }
        InferenceRequest::new(
            *next_id,
            ARRIVALS[(b % 6) as usize],
            SEQ_LENS[(a / 4 % 3) as usize],
        )
        .with_deadline_ns(DEADLINES[(b / 6 % 8) as usize])
        .with_priority((a / 12 % 3) as u8)
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn indexed_scheduler_matches_the_linear_scan_reference(
                ops in proptest::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..160usize),
                policy in proptest::sample::select(SchedulingPolicy::ALL.to_vec()),
                max_batch_size in 1usize..6,
            ) {
                let mut s = hyflexpim_scheduler(SchedulerConfig {
                    max_batch_size,
                    max_wait_ns: 0.0,
                    pus_per_layer: 2,
                    policy,
                })
                .unwrap();
                let mut reference = Reference::new(&s);
                let mut next_id = 0u64;
                for (step, &(op, a, b)) in ops.iter().enumerate() {
                    let (got, want) = match op {
                        // Submissions are the most common step.
                        0 | 1 | 3 => {
                            let r = drawn_request(&mut next_id, a, b);
                            s.submit(r).unwrap();
                            reference.queue.push_back(r);
                            (Vec::new(), Vec::new())
                        }
                        2 => {
                            let got = s.next_batch();
                            let want = reference.next_batch();
                            prop_assert_eq!(
                                got.as_ref().map(|g| (g.cells_used, g.max_seq_len)),
                                want.as_ref().map(|w| (w.cells_used, w.max_seq_len))
                            );
                            (
                                got.map(|g| g.requests).unwrap_or_default(),
                                want.map(|w| w.requests).unwrap_or_default(),
                            )
                        }
                        4 => {
                            let incoming = drawn_request(&mut next_id, a, b);
                            let got = s.preempt_for(&incoming);
                            let want = reference.preempt_for(&incoming);
                            if got.is_some() {
                                // Admit the newcomer in the victim's place,
                                // as the serving engine does.
                                s.submit(incoming).unwrap();
                                reference.queue.push_back(incoming);
                            }
                            (got.into_iter().collect(), want.into_iter().collect())
                        }
                        _ => {
                            const HORIZONS: [f64; 5] = [-0.0, 0.0, 100.0, 400.0, 2_500.0];
                            let horizon = HORIZONS[(a % 5) as usize];
                            let estimate = |seq_len: usize| (b % 3) as f64 * seq_len as f64;
                            (
                                s.shed_doomed(horizon, estimate),
                                reference.shed_doomed(horizon, estimate),
                            )
                        }
                    };
                    prop_assert_eq!(all_fields(&got), all_fields(&want), "step {} op {}", step, op);
                    prop_assert_eq!(
                        all_fields(s.queue.iter().map(|(_, r)| r)),
                        all_fields(&reference.queue),
                        "queue after step {}",
                        step
                    );
                    prop_assert_eq!(s.queue_len(), reference.queue.len());
                    prop_assert_eq!(
                        s.front_arrival_ns().map(f64::to_bits),
                        reference.queue.front().map(|r| r.arrival_ns.to_bits())
                    );
                    prop_assert_eq!(
                        s.fill_time_ns().map(f64::to_bits),
                        reference.fill_time_ns().map(f64::to_bits),
                        "fill time after step {}",
                        step
                    );
                    // The indexes hold exactly the queued requests.
                    let seqs: Vec<u64> = s.queue.iter().map(|&(seq, _)| seq).collect();
                    prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]));
                    if let Some(order) = &s.order {
                        let mut indexed: Vec<u64> = order.iter().map(|&(_, seq)| seq).collect();
                        indexed.sort_unstable();
                        prop_assert_eq!(&indexed, &seqs);
                    }
                    if let Some(shed_index) = &s.shed_index {
                        let mut indexed: Vec<u64> =
                            shed_index.values().flatten().map(|&(_, seq)| seq).collect();
                        indexed.sort_unstable();
                        let finite: Vec<u64> = (s.queue.iter())
                            .filter(|(_, r)| r.deadline_ns.is_finite())
                            .map(|&(seq, _)| seq)
                            .collect();
                        prop_assert_eq!(indexed, finite);
                    }
                }
            }
        }
    }

    #[test]
    fn fill_time_tracks_the_queues_actual_shape() {
        // Size cap binds: the fill time is the target-th request's arrival.
        let mut s = scheduler(3, 1);
        s.submit(request(0, 64)).unwrap();
        s.submit(request(1, 64)).unwrap();
        assert_eq!(s.fill_time_ns(), None, "two of three queued");
        s.submit(request(2, 64)).unwrap();
        assert_eq!(s.fill_time_ns(), Some(2.0));
        // Extra requests never move the fill time earlier or later.
        s.submit(request(3, 64)).unwrap();
        assert_eq!(s.fill_time_ns(), Some(2.0));

        // Capacity binds: a long request shrinks the target, so a queue
        // that was not full becomes full the moment the long one arrives.
        let mut s = scheduler(16, 2);
        s.submit(request(0, 64)).unwrap();
        s.submit(request(1, 64)).unwrap();
        assert_eq!(s.fill_time_ns(), None);
        let long = 4096;
        let capacity_batch = s.capacity_cells() / s.request_cells(long);
        assert!(
            (1..=3).contains(&capacity_batch),
            "test premise: long requests bind (capacity batch {capacity_batch})"
        );
        s.submit(request(2, long)).unwrap();
        assert_eq!(s.fill_time_ns(), Some(2.0));
    }
}
