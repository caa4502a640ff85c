//! Fluid-flow bandwidth model with max-min fair sharing and strict priorities.
//!
//! Transfers in a GPU server are modelled as *flows* over a set of *links*
//! (PCIe lanes, root-complex uplinks, memory buses, NVLink). At any instant
//! every flow has a rate determined by:
//!
//! 1. **Strict priority**: higher-priority flows are allocated first; lower
//!    priorities share what is left. This models
//!    `cudaStreamCreateWithPriority`, which Mobius uses to order prefetches
//!    (§3.3 of the paper).
//! 2. **Max-min fairness** within a priority class: the classic water-filling
//!    allocation, which is how concurrent DMA engines behind a shared PCIe
//!    root complex divide bandwidth in practice (the 50 %-of-peak plateau in
//!    Figure 2 of the paper).
//!
//! The model is *fluid*: rates stay constant between flow arrivals and
//! departures, so the network only needs to be re-solved at those instants.
//! The solve is lazy: a mutation (start, completion, cancel, block toggle,
//! capacity change) only marks the rates stale, and the first read of a rate
//! after it solves once, however many mutations came in between. Every
//! solve rebuilds all rates from the flow table, the classes, the blocked
//! flags and the capacities, so a rate read is the same bits whether the
//! mutations before it were solved one by one or together.
//! The priority classes are kept in step with the flow table (a start files
//! the flow, a completion or cancel unfiles it), so a solve never sorts.
//!
//! Each flow carries its owner's tag, a value of the network's type
//! parameter `T`: [`FlowNetwork::start_flow`] takes it, and
//! [`FlowNetwork::complete`], [`FlowNetwork::cancel`] and
//! [`crate::ClockOverflow`] give it back by value. A simulator keeps a
//! flow's metadata in its tag, so no completion can arrive without it.

use crate::validate::InvariantViolation;
use crate::SimTime;

/// Identifies a link added with [`FlowNetwork::add_link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// Index of this link inside its network.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies an in-flight flow returned by [`FlowNetwork::start_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

/// Priority class of a flow; larger values pre-empt smaller ones.
pub type Priority = u8;

#[derive(Debug, Clone)]
struct Link {
    label: String,
    capacity: f64, // bytes per second
}

#[derive(Debug, Clone)]
struct Flow {
    path: Vec<LinkId>,
    remaining: f64, // bytes
    total: f64,
    priority: Priority,
    rate: f64, // bytes per second, as of the last solve
    started: SimTime,
    /// Frozen by fault injection: excluded from allocation (rate 0) until
    /// unblocked or cancelled.
    blocked: bool,
}

/// A completed transfer, reported by [`FlowNetwork::complete`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Total bytes carried.
    pub bytes: f64,
    /// When the flow entered the network.
    pub started: SimTime,
    /// When the flow drained.
    pub finished: SimTime,
    /// The links it crossed.
    pub path: Vec<LinkId>,
}

/// A capacity-constrained network of links carrying fluid flows, each
/// tagged with a `T` its owner gets back when the flow ends.
///
/// # Examples
///
/// Two equal flows across one 10 GB/s link each get 5 GB/s:
///
/// ```
/// use mobius_sim::{FlowNetwork, SimTime};
///
/// let mut net = FlowNetwork::new();
/// let l = net.add_link("uplink", 10.0e9);
/// let a = net.start_flow(vec![l], 5.0e9, 0, 1);
/// let _b = net.start_flow(vec![l], 5.0e9, 0, 2);
/// assert!((net.rate_of(a).unwrap() - 5.0e9).abs() < 1.0);
/// let (t, _first) = net.next_completion().unwrap();
/// assert_eq!(t, SimTime::from_secs(1)); // both drain 5 GB at 5 GB/s
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork<T = u64> {
    links: Vec<Link>,
    /// In-flight flows sorted by id. Ids are issued in ascending order, so
    /// [`FlowNetwork::start_flow`] appends and lookups binary-search.
    flows: Vec<(FlowId, Flow)>,
    /// `tags[i]` is the tag of `flows[i]`. Kept apart from the flow table,
    /// so the rate solve never walks over the tags.
    tags: Vec<T>,
    next_id: u64,
    now: SimTime,
    strict: bool,
    /// The priority classes: indices into the flow table, by priority
    /// descending, then id ascending; a class is a run of equal priority.
    /// Kept in step with the table, so a solve never sorts. Blocked flows
    /// stay in and are filtered at allocation time.
    classes: Vec<usize>,
    /// Set by every mutation that can change a rate; the next rate read
    /// re-solves (see `settle`).
    stale: bool,
    scratch: Scratch,
    obs: Option<mobius_obs::Obs>,
}

/// Buffers a rate solve works in, kept across solves so that a solve
/// allocates nothing once they have grown to the network's size.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Per-link capacity the classes solved so far left over.
    residual: Vec<f64>,
    /// Per-link capacity the current class's water-fill has left.
    class_residual: Vec<f64>,
    /// Per-link count of the current class's unfrozen flows.
    users: Vec<usize>,
    /// Unblocked flows of the current class, as table indices in id order.
    members: Vec<usize>,
    /// The members not frozen yet, in id order.
    active: Vec<usize>,
}

impl<T> Default for FlowNetwork<T> {
    fn default() -> Self {
        Self {
            links: Vec::new(),
            flows: Vec::new(),
            tags: Vec::new(),
            next_id: 0,
            now: SimTime::ZERO,
            strict: false,
            classes: Vec::new(),
            stale: false,
            scratch: Scratch::default(),
            obs: None,
        }
    }
}

impl<T> FlowNetwork<T> {
    /// Creates an empty network at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an observer: strict validation failures are then emitted as
    /// structured violation events (with link and allocation context) before
    /// the panic, so post-mortem traces show what went wrong and when.
    pub fn set_obs(&mut self, obs: mobius_obs::Obs) {
        self.obs = Some(obs);
    }

    /// All link labels, indexed by [`LinkId::index`] — the lane names used
    /// by trace exports.
    pub fn link_labels(&self) -> Vec<String> {
        self.links.iter().map(|l| l.label.clone()).collect()
    }

    /// Current network time (advanced by [`FlowNetwork::advance_to`]).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds a link with capacity in **bytes per second** and returns its id.
    pub fn add_link(&mut self, label: impl Into<String>, capacity_bytes_per_sec: f64) -> LinkId {
        assert!(
            capacity_bytes_per_sec > 0.0,
            "link capacity must be positive"
        );
        self.links.push(Link {
            label: label.into(),
            capacity: capacity_bytes_per_sec,
        });
        LinkId(self.links.len() - 1)
    }

    /// Capacity of a link in bytes per second.
    pub fn link_capacity(&self, id: LinkId) -> f64 {
        self.links[id.0].capacity
    }

    /// Changes a link's capacity *mid-simulation* — the time-varying
    /// bandwidth of a degraded (or recovered) link. The rates go stale: the
    /// next rate read re-solves them against the new capacity, and strict
    /// mode validates that solve, so no observed state of a fault window
    /// can leave the network oversubscribed.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive and finite.
    pub fn set_link_capacity(&mut self, id: LinkId, capacity_bytes_per_sec: f64) {
        assert!(
            capacity_bytes_per_sec.is_finite() && capacity_bytes_per_sec > 0.0,
            "link capacity must be positive"
        );
        self.links[id.0].capacity = capacity_bytes_per_sec;
        self.mark_stale();
    }

    /// Ids of all links, in insertion order — pairs with
    /// [`FlowNetwork::link_labels`] for label-based lookups (fault
    /// injection matches degradation windows against link labels).
    pub fn link_ids(&self) -> Vec<LinkId> {
        (0..self.links.len()).map(LinkId).collect()
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Starts a flow of `bytes` across `path` at `priority`, carrying the
    /// caller's `tag`, and returns its id. The rates go stale and are
    /// re-solved at the next rate read.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty (zero-hop copies are the caller's business —
    /// model them as instantaneous), crosses a link twice, or `bytes` is not
    /// positive and finite.
    pub fn start_flow(
        &mut self,
        path: Vec<LinkId>,
        bytes: f64,
        priority: Priority,
        tag: T,
    ) -> FlowId {
        assert!(!path.is_empty(), "flows must cross at least one link");
        assert!(
            bytes.is_finite() && bytes > 0.0,
            "flow size must be positive"
        );
        for (k, l) in path.iter().enumerate() {
            assert!(l.0 < self.links.len(), "unknown link in path");
            assert!(
                !path[..k].contains(l),
                "a path crosses each link at most once"
            );
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.push((
            id,
            Flow {
                path,
                remaining: bytes,
                total: bytes,
                priority,
                rate: 0.0,
                started: self.now,
                blocked: false,
            },
        ));
        self.tags.push(tag);
        // The new flow's table index is the largest: it goes last in its
        // class.
        let flows = &self.flows;
        let at = self
            .classes
            .partition_point(|&j| flows[j].1.priority >= priority);
        self.classes.insert(at, flows.len() - 1);
        self.mark_stale();
        id
    }

    /// Position of flow `id` in the id-sorted flow table.
    fn index_of(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id, |&(fid, _)| fid).ok()
    }

    fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.index_of(id).map(|i| &self.flows[i].1)
    }

    fn flow_mut(&mut self, id: FlowId) -> Option<&mut Flow> {
        self.index_of(id).map(|i| &mut self.flows[i].1)
    }

    /// Freezes or resumes a flow (fault injection: a stalled DMA engine).
    /// A blocked flow keeps its remaining bytes but moves at rate 0 and is
    /// excluded from the water-filling allocation, so its share is
    /// redistributed at the next rate read. No-op for unknown (already
    /// completed) ids and for a flow already in the requested state.
    pub fn set_flow_blocked(&mut self, id: FlowId, blocked: bool) {
        let Some(f) = self.flow_mut(id) else {
            return;
        };
        if f.blocked != blocked {
            f.blocked = blocked;
            self.mark_stale();
        }
    }

    /// Whether a flow is currently frozen by [`set_flow_blocked`].
    ///
    /// [`set_flow_blocked`]: FlowNetwork::set_flow_blocked
    pub fn is_flow_blocked(&self, id: FlowId) -> Option<bool> {
        self.flow(id).map(|f| f.blocked)
    }

    /// Ids of all in-flight flows, in ascending (start-order) id sequence —
    /// the deterministic victim order for injected transfer stalls.
    pub fn active_flow_ids(&self) -> Vec<FlowId> {
        self.flows.iter().map(|&(id, _)| id).collect()
    }

    /// The path of an active flow (for retrying it as a fresh flow).
    pub fn path_of(&self, id: FlowId) -> Option<Vec<LinkId>> {
        self.flow(id).map(|f| f.path.clone())
    }

    /// The priority of an active flow.
    pub fn priority_of(&self, id: FlowId) -> Option<Priority> {
        self.flow(id).map(|f| f.priority)
    }

    /// The current rate of a flow in bytes/second, if it is still active.
    /// Settles stale rates first.
    pub fn rate_of(&mut self, id: FlowId) -> Option<f64> {
        self.settle();
        self.flow(id).map(|f| f.rate)
    }

    /// Remaining bytes of a flow, if it is still active.
    pub fn remaining_of(&self, id: FlowId) -> Option<f64> {
        self.flow(id).map(|f| f.remaining)
    }

    /// The earliest instant at which some flow drains, with its id.
    ///
    /// Ties resolve to the smallest id so executors are deterministic.
    /// Returns `None` when no flow is moving (no flows, or all blocked).
    /// Settles stale rates first.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        self.settle();
        let mut best: Option<(SimTime, FlowId)> = None;
        for (id, f) in &self.flows {
            if f.rate <= 0.0 {
                continue;
            }
            let dt = f.remaining / f.rate;
            // Round *up* to the next nanosecond so that advancing to the
            // completion instant always drains the flow fully (rounding to
            // nearest can leave a few bytes at multi-GB/s rates).
            let ns = crate::units::secs_to_ns(dt).ceil();
            let at = self.now
                + if ns >= u64::MAX as f64 {
                    SimTime::MAX
                } else {
                    SimTime::from_nanos(ns as u64)
                };
            // Guarantee progress: a flow never completes "now" unless it
            // truly has nothing left.
            let at = if f.remaining > 0.0 && at == self.now {
                self.now + SimTime::from_nanos(1)
            } else {
                at
            };
            match best {
                Some((t, _)) if t <= at => {}
                _ => best = Some((at, *id)),
            }
        }
        best
    }

    /// Enables or disables strict invariant validation.
    ///
    /// While enabled, the flow-conservation checks run after every rate
    /// solve and before every time advance, and any
    /// [`InvariantViolation`](crate::InvariantViolation) panics. Solves are
    /// lazy, so this checks every state a rate read observes, not the
    /// unread states between mutations. Meant for tests and debugging; the
    /// checks are `O(flows × links)` per solve.
    pub fn set_strict_validation(&mut self, on: bool) {
        self.strict = on;
        if on {
            self.settle_and_check();
        }
    }

    /// Whether strict invariant validation is enabled.
    pub fn strict_validation(&self) -> bool {
        self.strict
    }

    /// Checks flow-conservation invariants against the *documented* sharing
    /// model, independently of the water-filling solver:
    ///
    /// 1. no link carries more than its capacity (flow conservation),
    /// 2. no flow has a negative rate,
    /// 3. a zero-rate flow must be preempted — some link on its path is
    ///    saturated by flows of equal or higher priority. Starvation with
    ///    idle links would mean the allocator dropped a flow.
    ///
    /// Settles stale rates first, so it checks the rates a read would see.
    #[cfg(test)]
    pub(crate) fn validate_rates(&mut self) -> Result<(), InvariantViolation> {
        self.settle();
        self.check_rates()
    }

    /// The flow-conservation checks on the rates as they stand: no link
    /// carries more than its capacity, no flow has a negative rate, and a
    /// zero-rate flow is preempted by flows of equal or higher priority.
    fn check_rates(&self) -> Result<(), InvariantViolation> {
        use crate::InvariantViolation as V;
        // Per-link allocated rate, total and by minimum contributing
        // priority (for the preemption-justification check).
        let mut allocated = vec![0.0f64; self.links.len()];
        for (id, f) in &self.flows {
            if f.rate < 0.0 {
                return Err(V::NegativeRate {
                    id: *id,
                    rate: f.rate,
                });
            }
            for l in &f.path {
                allocated[l.0] += f.rate;
            }
        }
        for (li, link) in self.links.iter().enumerate() {
            let tol = 1.0f64.max(1e-6 * link.capacity);
            if allocated[li] > link.capacity + tol {
                return Err(V::LinkOversubscribed {
                    link: link.label.clone(),
                    capacity: link.capacity,
                    allocated: allocated[li],
                });
            }
        }
        for (id, f) in &self.flows {
            if f.rate > 0.0 || f.blocked {
                // A blocked flow is frozen by fault injection; zero rate is
                // its defined behaviour, not starvation.
                continue;
            }
            // Zero rate is only legitimate under preemption: some link on
            // the path must be (nearly) saturated by >= f.priority traffic.
            let justified = f.path.iter().any(|l| {
                let cap = self.links[l.0].capacity;
                let tol = 1.0f64.max(1e-6 * cap);
                let high: f64 = self
                    .flows
                    .iter()
                    .map(|(_, g)| g)
                    .filter(|g| g.priority >= f.priority)
                    .filter(|g| g.path.contains(l))
                    .map(|g| g.rate)
                    .sum();
                high >= cap - tol
            });
            if !justified {
                return Err(V::StarvedFlow {
                    id: *id,
                    priority: f.priority,
                });
            }
        }
        Ok(())
    }

    fn assert_valid(&self) {
        if let Err(v) = self.check_rates() {
            if let Some(obs) = &self.obs {
                obs.violation("flow-network", &v.to_string(), self.now.as_nanos());
            }
            panic!("flow-network invariant violated at {:?}: {v}", self.now);
        }
    }

    /// Overwrites the solved rate of a flow *without* re-solving the
    /// network (stale rates are settled first, so the injected rate stands
    /// until the next mutation). Test-only injection hook for exercising
    /// the strict-mode validators; never call this from simulation code.
    #[cfg(test)]
    pub(crate) fn debug_set_rate(&mut self, id: FlowId, rate: f64) {
        self.settle();
        self.flow_mut(id).expect("unknown flow id").rate = rate;
    }

    /// Advances network time to `to`, draining every flow at its current
    /// rate. Must not skip past a completion returned by
    /// [`FlowNetwork::next_completion`]. Settles stale rates first when
    /// time moves, and in strict mode always.
    pub fn advance_to(&mut self, to: SimTime) {
        if self.strict {
            self.settle_and_check();
        }
        if to <= self.now {
            return;
        }
        self.settle();
        let dt = (to - self.now).as_secs_f64();
        for (_, f) in &mut self.flows {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        self.now = to;
    }

    /// Removes flow `id` and returns its record and tag; the rates go stale.
    ///
    /// The caller decides *when* a flow is complete (typically at the instant
    /// reported by [`FlowNetwork::next_completion`]); sub-byte residues from
    /// floating-point rounding are forgiven. The forgiven residue scales
    /// with the flow's rate, so stale rates are settled first.
    ///
    /// # Errors
    ///
    /// Returns a typed [`InvariantViolation`] instead of unwinding, so
    /// [`crate::step`] can tell a clock overflow from a simulator bug. An
    /// id that is not (or no longer) in the network is
    /// [`InvariantViolation::UnknownFlow`]. Completing a
    /// flow with visibly more than a rounding residue pending is
    /// [`InvariantViolation::IncompleteFlow`]. Because
    /// [`FlowNetwork::next_completion`] quantizes completion instants up to
    /// the next nanosecond, a flow may carry up to ~1 ns worth of bytes at
    /// its final rate; the tolerance therefore scales with the rate (a
    /// 600 GB/s NVLink flow legally holds ~600 residual bytes) with a
    /// 64-byte floor for slow flows. A flow still pending once the clock
    /// has saturated at [`SimTime::MAX`] is
    /// [`InvariantViolation::ClockOverflow`] instead: its link is too slow
    /// for the transfer to finish inside the simulated clock. Every
    /// violation is also emitted on the observer's violation lane when one
    /// is attached.
    pub fn complete(&mut self, id: FlowId) -> Result<(FlowRecord, T), InvariantViolation> {
        self.settle();
        let Some(i) = self.index_of(id) else {
            return Err(self.report_violation(InvariantViolation::UnknownFlow { id }));
        };
        let f = &self.flows[i].1;
        let tolerance = 64.0_f64.max(2e-9 * f.rate);
        if f.remaining > tolerance {
            let v = if self.now == SimTime::MAX {
                InvariantViolation::ClockOverflow {
                    id,
                    remaining: f.remaining,
                }
            } else {
                InvariantViolation::IncompleteFlow {
                    id,
                    remaining: f.remaining,
                    tolerance,
                }
            };
            return Err(self.report_violation(v));
        }
        let (f, tag) = self.remove_flow(i);
        let rec = FlowRecord {
            bytes: f.total,
            started: f.started,
            finished: self.now,
            path: f.path,
        };
        Ok((rec, tag))
    }

    fn report_violation(&self, v: InvariantViolation) -> InvariantViolation {
        if let Some(obs) = &self.obs {
            obs.violation("flow-network", &v.to_string(), self.now.as_nanos());
        }
        v
    }

    /// Cancels a flow without asserting completion (e.g. aborted prefetch),
    /// returning the bytes actually moved and the flow's tag.
    pub fn cancel(&mut self, id: FlowId) -> Option<(f64, T)> {
        let (f, tag) = self.remove_flow(self.index_of(id)?);
        Some((f.total - f.remaining, tag))
    }

    /// Removes the flow at table index `i` from the table and its class
    /// (every index above it moves down by one) and returns it with its
    /// tag; the rates go stale.
    fn remove_flow(&mut self, i: usize) -> (Flow, T) {
        self.classes.retain_mut(|j| {
            let keep = *j != i;
            if *j > i {
                *j -= 1;
            }
            keep
        });
        let (_, f) = self.flows.remove(i);
        let tag = self.tags.remove(i);
        self.mark_stale();
        (f, tag)
    }

    /// Records a mutation that can change the rates: the next rate read
    /// re-solves. `flow.partition_rebuild` counts these mutations, not the
    /// solves, so its value does not depend on how many of them a solve
    /// absorbs.
    fn mark_stale(&mut self) {
        if let Some(obs) = &self.obs {
            obs.counter_add("flow.partition_rebuild", 1.0);
        }
        self.stale = true;
    }

    /// Re-solves the rates if a mutation has made them stale. Strict mode
    /// validates every solve.
    fn settle(&mut self) {
        if self.stale {
            self.stale = false;
            self.solve();
        }
    }

    /// Settles the rates and checks them: a fresh solve is validated as
    /// every strict solve is, and rates that were already settled are
    /// re-checked, so an injected rate cannot slip past.
    fn settle_and_check(&mut self) {
        if self.stale {
            self.settle();
        } else {
            self.assert_valid();
        }
    }

    /// Solves every rate from scratch: strict priority between classes,
    /// max-min water filling inside each class.
    ///
    /// Blocked flows stay in their class and are filtered here, at
    /// allocation time. The solve works in `self.scratch` and allocates
    /// nothing once it has grown.
    fn solve(&mut self) {
        for (_, f) in &mut self.flows {
            f.rate = 0.0;
        }

        let s = &mut self.scratch;
        s.residual.clear();
        s.residual.extend(self.links.iter().map(|l| l.capacity));
        let mut rest = &self.classes[..];
        while let Some(&first) = rest.first() {
            let prio = self.flows[first].1.priority;
            let len = rest
                .iter()
                .position(|&i| self.flows[i].1.priority != prio)
                .unwrap_or(rest.len());
            let (class, tail) = rest.split_at(len);
            rest = tail;
            // Blocked (stalled) flows take no part in the allocation.
            s.members.clear();
            s.members
                .extend(class.iter().copied().filter(|&i| !self.flows[i].1.blocked));
            match s.members[..] {
                [] => continue,
                // A lone flow's water-fill share is the smallest residual on
                // its path: `x / 1.0` is exact, and a residual is never -0.0.
                [i] => {
                    let f = &mut self.flows[i].1;
                    f.rate = f
                        .path
                        .iter()
                        .map(|l| s.residual[l.0])
                        .fold(f64::INFINITY, f64::min);
                }
                _ => water_fill(&mut self.flows, s),
            }
            for &i in &s.members {
                let f = &self.flows[i].1;
                for l in &f.path {
                    s.residual[l.0] = (s.residual[l.0] - f.rate).max(0.0);
                }
            }
        }

        if self.strict {
            self.assert_valid();
        }
    }
}

/// Max-min fair ("water-filling") allocation for one priority class: sets
/// the rate of every flow in `s.members` against the capacity left in
/// `s.residual`.
///
/// Each round freezes the unfrozen flows crossing the bottleneck link (the
/// smallest residual per unfrozen user, lowest index on ties) at that
/// share. A frozen flow leaves the per-link user counts, so a round costs
/// one pass over the links plus one over the flows still unfrozen.
fn water_fill(flows: &mut [(FlowId, Flow)], s: &mut Scratch) {
    s.class_residual.clear();
    s.class_residual.extend_from_slice(&s.residual);
    s.users.clear();
    s.users.resize(s.residual.len(), 0);
    for &i in &s.members {
        for l in &flows[i].1.path {
            s.users[l.0] += 1;
        }
    }
    s.active.clear();
    s.active.extend_from_slice(&s.members);

    while !s.active.is_empty() {
        // Bottleneck link: minimal residual/users among used links.
        let mut bottleneck: Option<(usize, f64)> = None;
        for (li, (&res, &u)) in s.class_residual.iter().zip(&s.users).enumerate() {
            if u == 0 {
                continue;
            }
            let share = res / u as f64;
            match bottleneck {
                Some((_, best)) if best <= share => {}
                _ => bottleneck = Some((li, share)),
            }
        }
        let Some((bl, share)) = bottleneck else {
            break; // defensive: unfrozen flows always use some link
        };
        // Freeze all unfrozen flows crossing the bottleneck at `share`.
        let unfrozen = s.active.len();
        let (class_residual, users) = (&mut s.class_residual, &mut s.users);
        s.active.retain(|&i| {
            let f = &mut flows[i].1;
            if !f.path.contains(&LinkId(bl)) {
                return true;
            }
            f.rate = share;
            for l in &f.path {
                class_residual[l.0] = (class_residual[l.0] - share).max(0.0);
                users[l.0] -= 1;
            }
            false
        });
        if s.active.len() == unfrozen {
            break; // defensive: should be unreachable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbps(x: f64) -> f64 {
        x * 1e9
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(16.0));
        let f = net.start_flow(vec![l], gbps(16.0), 0, 0);
        assert!((net.rate_of(f).unwrap() - gbps(16.0)).abs() < 1.0);
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(t, SimTime::from_secs(1));
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(12.0));
        let a = net.start_flow(vec![l], gbps(6.0), 0, 0);
        let b = net.start_flow(vec![l], gbps(6.0), 0, 1);
        assert!((net.rate_of(a).unwrap() - gbps(6.0)).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - gbps(6.0)).abs() < 1.0);
    }

    #[test]
    fn remaining_flow_speeds_up_after_completion() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(10.0));
        let a = net.start_flow(vec![l], gbps(5.0), 0, 0);
        let _b = net.start_flow(vec![l], gbps(10.0), 0, 1);
        // Both run at 5 GB/s; `a` finishes at t=1s.
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, a);
        assert_eq!(t, SimTime::from_secs(1));
        net.advance_to(t);
        net.complete(a).unwrap();
        // `b` has 5 GB left and now gets the whole 10 GB/s: +0.5s.
        let (t2, _) = net.next_completion().unwrap();
        assert_eq!(t2, SimTime::from_millis(1500));
    }

    #[test]
    fn bottleneck_on_shared_segment_only() {
        // Two private 16 GB/s lanes feeding one 13 GB/s uplink: each flow
        // gets 6.5 GB/s (the commodity-server contention of the paper).
        let mut net = FlowNetwork::new();
        let lane_a = net.add_link("pcie-a", gbps(16.0));
        let lane_b = net.add_link("pcie-b", gbps(16.0));
        let uplink = net.add_link("root-complex", gbps(13.0));
        let a = net.start_flow(vec![lane_a, uplink], gbps(100.0), 0, 0);
        let b = net.start_flow(vec![lane_b, uplink], gbps(100.0), 0, 1);
        assert!((net.rate_of(a).unwrap() - gbps(6.5)).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - gbps(6.5)).abs() < 1.0);
    }

    #[test]
    fn max_min_gives_leftover_to_unbottlenecked_flow() {
        // Flow a crosses the small link; b only the big one. a is capped at
        // 4, b gets 16 (not 10 as equal split of the big link would give).
        let mut net = FlowNetwork::new();
        let small = net.add_link("small", gbps(4.0));
        let big = net.add_link("big", gbps(20.0));
        let a = net.start_flow(vec![small, big], gbps(1.0), 0, 0);
        let b = net.start_flow(vec![big], gbps(1.0), 0, 1);
        assert!((net.rate_of(a).unwrap() - gbps(4.0)).abs() < 1.0);
        assert!((net.rate_of(b).unwrap() - gbps(16.0)).abs() < 1.0);
    }

    #[test]
    fn strict_priority_preempts() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(10.0));
        let hi = net.start_flow(vec![l], gbps(1.0), 5, 0);
        let lo = net.start_flow(vec![l], gbps(1.0), 1, 1);
        assert!((net.rate_of(hi).unwrap() - gbps(10.0)).abs() < 1.0);
        assert_eq!(net.rate_of(lo).unwrap(), 0.0);
        // After the high-priority flow drains, the low one resumes.
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, hi);
        net.advance_to(t);
        net.complete(hi).unwrap();
        assert!((net.rate_of(lo).unwrap() - gbps(10.0)).abs() < 1.0);
    }

    #[test]
    fn conservation_no_link_oversubscribed() {
        let mut net = FlowNetwork::new();
        let l1 = net.add_link("l1", gbps(7.0));
        let l2 = net.add_link("l2", gbps(5.0));
        let ids: Vec<FlowId> = (0..6)
            .map(|i| {
                let path = match i % 3 {
                    0 => vec![l1],
                    1 => vec![l2],
                    _ => vec![l1, l2],
                };
                net.start_flow(path, gbps(10.0), (i % 2) as u8, i)
            })
            .collect();
        let mut on_l1 = 0.0;
        let mut on_l2 = 0.0;
        for (i, id) in ids.iter().enumerate() {
            let r = net.rate_of(*id).unwrap();
            match i % 3 {
                0 => on_l1 += r,
                1 => on_l2 += r,
                _ => {
                    on_l1 += r;
                    on_l2 += r;
                }
            }
        }
        assert!(on_l1 <= gbps(7.0) + 1.0);
        assert!(on_l2 <= gbps(5.0) + 1.0);
    }

    #[test]
    fn record_reports_the_transfer() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(8.0));
        let f = net.start_flow(vec![l], gbps(16.0), 0, 42);
        let (t, _) = net.next_completion().unwrap();
        net.advance_to(t);
        let (rec, tag) = net.complete(f).unwrap();
        assert_eq!(tag, 42);
        assert_eq!(rec.bytes, gbps(16.0));
        assert_eq!(rec.path, vec![l]);
        assert_eq!(rec.started, SimTime::ZERO);
        assert_eq!(rec.finished, SimTime::from_secs(2));
    }

    #[test]
    fn cancel_returns_bytes_moved() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(10.0));
        let f = net.start_flow(vec![l], gbps(10.0), 0, 0);
        net.advance_to(SimTime::from_millis(500));
        let (moved, tag) = net.cancel(f).unwrap();
        assert!((moved - gbps(5.0)).abs() < 1e6);
        assert_eq!(tag, 0);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_rejected() {
        let mut net = FlowNetwork::new();
        net.start_flow(vec![], 1.0, 0, 0);
    }

    #[test]
    fn rates_track_a_changed_link_capacity() {
        let mut net = FlowNetwork::new();
        net.set_strict_validation(true);
        let l = net.add_link("l", gbps(10.0));
        let f = net.start_flow(vec![l], gbps(10.0), 0, 0);
        assert!((net.rate_of(f).unwrap() - gbps(10.0)).abs() < 1.0);
        // The link degrades to half capacity: the flow tracks it at once
        // and conservation holds under strict validation.
        net.set_link_capacity(l, gbps(5.0));
        assert!((net.rate_of(f).unwrap() - gbps(5.0)).abs() < 1.0);
        net.set_link_capacity(l, gbps(10.0));
        assert!((net.rate_of(f).unwrap() - gbps(10.0)).abs() < 1.0);
    }

    #[test]
    fn degraded_link_stretches_completion() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(10.0));
        let f = net.start_flow(vec![l], gbps(10.0), 0, 0);
        net.advance_to(SimTime::from_millis(500));
        net.set_link_capacity(l, gbps(5.0)); // 5 GB left at 5 GB/s: +1s
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(t, SimTime::from_millis(1500));
    }

    #[test]
    fn blocked_flow_frees_bandwidth_for_the_rest() {
        let mut net = FlowNetwork::new();
        net.set_strict_validation(true);
        let l = net.add_link("l", gbps(10.0));
        let a = net.start_flow(vec![l], gbps(10.0), 0, 0);
        let b = net.start_flow(vec![l], gbps(10.0), 0, 1);
        assert!((net.rate_of(a).unwrap() - gbps(5.0)).abs() < 1.0);
        net.set_flow_blocked(a, true);
        assert_eq!(net.rate_of(a).unwrap(), 0.0);
        assert!((net.rate_of(b).unwrap() - gbps(10.0)).abs() < 1.0);
        assert_eq!(net.is_flow_blocked(a), Some(true));
        // Unblock: back to the fair split, strict validation happy
        // throughout.
        net.set_flow_blocked(a, false);
        assert!((net.rate_of(a).unwrap() - gbps(5.0)).abs() < 1.0);
    }

    #[test]
    fn blocked_flow_is_not_a_completion_candidate() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(10.0));
        let a = net.start_flow(vec![l], gbps(10.0), 0, 0);
        net.set_flow_blocked(a, true);
        assert!(net.next_completion().is_none());
    }

    #[test]
    fn flow_introspection_for_retries() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(10.0));
        let a = net.start_flow(vec![l], gbps(1.0), 7, 0);
        assert_eq!(net.active_flow_ids(), vec![a]);
        assert_eq!(net.path_of(a).unwrap(), vec![l]);
        assert_eq!(net.priority_of(a), Some(7));
        net.cancel(a);
        assert!(net.active_flow_ids().is_empty());
        assert_eq!(net.path_of(a), None);
    }

    #[test]
    fn blocked_flow_never_completes() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(1.0));
        let _hi = net.start_flow(vec![l], gbps(100.0), 9, 0);
        let lo = net.start_flow(vec![l], gbps(1.0), 0, 1);
        assert_eq!(net.rate_of(lo).unwrap(), 0.0);
        let (_, id) = net.next_completion().unwrap();
        assert_ne!(id, lo);
    }

    #[test]
    fn completing_torn_down_flow_is_typed_not_a_panic() {
        // Completing an id a watchdog already cancelled is a typed
        // violation, not an unwind.
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(10.0));
        let f = net.start_flow(vec![l], gbps(10.0), 0, 0);
        net.cancel(f);
        assert_eq!(
            net.complete(f),
            Err(InvariantViolation::UnknownFlow { id: f })
        );
    }

    #[test]
    fn completing_unfinished_flow_is_typed_not_a_panic() {
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", gbps(10.0));
        let f = net.start_flow(vec![l], gbps(10.0), 0, 0);
        net.advance_to(SimTime::from_millis(500));
        match net.complete(f) {
            Err(InvariantViolation::IncompleteFlow { id, remaining, .. }) => {
                assert_eq!(id, f);
                assert!((remaining - gbps(5.0)).abs() < 1e6);
            }
            other => panic!("expected IncompleteFlow, got {other:?}"),
        }
        // The failed completion must not have removed the flow.
        assert_eq!(net.active_flows(), 1);
    }

    #[test]
    fn a_flow_outlasting_the_clock_is_a_clock_overflow() {
        // 1 GB at 1 mB/s needs 1e12 s, past the u64-nanosecond clock: the
        // completion instant saturates and the flow is still pending there.
        let mut net = FlowNetwork::new();
        let l = net.add_link("l", 1e-3);
        let f = net.start_flow(vec![l], gbps(1.0), 0, 0);
        let (t, id) = net.next_completion().unwrap();
        assert_eq!((t, id), (SimTime::MAX, f));
        net.advance_to(t);
        match net.complete(f) {
            Err(InvariantViolation::ClockOverflow { id, remaining }) => {
                assert_eq!(id, f);
                assert!(remaining > gbps(0.9));
            }
            other => panic!("expected ClockOverflow, got {other:?}"),
        }
        assert_eq!(net.active_flows(), 1);
    }

    #[test]
    fn partition_rebuild_counts_mutations_not_reads() {
        // Six rate-changing mutations (a repeated block is none) with no
        // read between them: the counter counts each, and the reads that
        // settle them add nothing.
        let obs = mobius_obs::Obs::new();
        let mut net = FlowNetwork::new();
        net.set_obs(obs.clone());
        let l = net.add_link("l", gbps(10.0));
        let a = net.start_flow(vec![l], gbps(10.0), 0, 0);
        let b = net.start_flow(vec![l], gbps(10.0), 0, 1);
        net.set_flow_blocked(a, true);
        net.set_flow_blocked(a, true); // no change: not a mutation
        net.set_link_capacity(l, gbps(4.0));
        let c = net.start_flow(vec![l], gbps(10.0), 1, 2);
        net.cancel(c);
        assert_eq!(obs.counter("flow.partition_rebuild"), 6.0);
        assert_eq!(net.rate_of(a), Some(0.0));
        assert_eq!(net.rate_of(b), Some(gbps(4.0)));
        assert_eq!(obs.counter("flow.partition_rebuild"), 6.0);
    }

    #[test]
    fn rates_depend_on_state_not_on_mutation_history() {
        // Same network driven twice — once with only capacity changes and
        // block toggles, once with membership churn in between — must
        // allocate identically.
        let build = |churn: bool| {
            let mut net = FlowNetwork::new();
            net.set_strict_validation(true);
            let lane = net.add_link("lane", gbps(16.0));
            let up = net.add_link("up", gbps(13.0));
            let a = net.start_flow(vec![lane, up], gbps(50.0), 3, 0);
            let b = net.start_flow(vec![up], gbps(50.0), 1, 1);
            let c = net.start_flow(vec![lane], gbps(50.0), 1, 2);
            if churn {
                // Start+cancel a higher-priority decoy.
                let d = net.start_flow(vec![up], gbps(1.0), 7, 9);
                net.cancel(d);
            }
            net.set_link_capacity(up, gbps(9.0));
            net.set_flow_blocked(a, true);
            let rates = (net.rate_of(a), net.rate_of(b), net.rate_of(c));
            net.set_flow_blocked(a, false);
            (rates, net.rate_of(a), net.rate_of(b), net.rate_of(c))
        };
        assert_eq!(build(false), build(true));
    }
}
