//! Deterministic fault injection: crashes, degradation, preemption, resize.
//!
//! The paper ran PIC on spot-priced Amazon EMR and leaned on Hadoop's task
//! re-execution ("if a node running a best-effort phase fails, Hadoop will
//! automatically restart it", §VII). This module makes those failures a
//! first-class, *seeded* part of the simulation so recovery cost can be
//! measured instead of assumed:
//!
//! - [`FaultPlan`] is a declarative, validated schedule of fault events.
//! - [`ChaosInjector`] is the armed runtime handle the engine and drivers
//!   consult while replaying a run. Every injected event and every recovery
//!   action is emitted as a `chaos`-category trace instant, so the existing
//!   report/timeline stack attributes recovery bytes and seconds per phase.
//!
//! Chaos only perturbs the *simulated* replay — task placement, timing and
//! traffic. Host-side computation is never killed, so a run under crashes
//! or degradation produces byte-identical results to the clean run; only
//! elastic resize (which changes the partitioning) may change the numbers.
//! The scenario suite in `tests/fault_tolerance.rs` pins these invariants.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::topology::{ClusterSpec, NodeId};
use crate::trace::{check, Payload, Trace, Tracer};

/// Display lane for injected-event instants.
pub const CHAOS_LANE: &str = "chaos";

/// One scheduled fault in a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Node `node` dies at simulated time `at_s` and stays dead: its
    /// in-flight task attempts are lost and re-executed elsewhere, and
    /// its DFS block replicas are re-replicated in the background.
    NodeCrash {
        /// The node that dies.
        node: NodeId,
        /// Absolute simulated time of the crash, seconds.
        at_s: f64,
    },
    /// All network transfers started inside `[from_s, until_s)` take
    /// `factor`× as long (rack-uplink / bisection congestion). Windows
    /// compound multiplicatively when they overlap.
    LinkDegradation {
        /// Slow-down multiplier, `>= 1`.
        factor: f64,
        /// Window start, absolute simulated seconds.
        from_s: f64,
        /// Window end, absolute simulated seconds.
        until_s: f64,
    },
    /// A spot-preemption wave reclaims `k` nodes at once at `at_s`. The
    /// victims are chosen deterministically from the plan seed.
    PreemptionWave {
        /// How many nodes the wave takes.
        k: usize,
        /// Absolute simulated time of the wave, seconds.
        at_s: f64,
    },
    /// Between driver iterations, the cluster is elastically resized:
    /// after iteration `after_iteration` completes, the run continues on
    /// `nodes` nodes with `partitions` partitions, paying a
    /// repartition-on-resize rebalance charged to the recovery class.
    ElasticResize {
        /// The 1-based driver iteration after which the resize happens.
        after_iteration: usize,
        /// New partition count.
        partitions: usize,
        /// New active node count.
        nodes: usize,
    },
}

/// A deterministic, seeded schedule of fault events.
///
/// Build one with the chained constructors, [`FaultPlan::validate`] it
/// against a cluster, then arm an engine's [`ChaosInjector`] with it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan. `seed` drives every random choice the plan ever
    /// makes (preemption victims), so identical seed + events replay
    /// byte-identically.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule a single-node crash at `at_s`.
    pub fn node_crash(mut self, node: NodeId, at_s: f64) -> Self {
        self.events.push(FaultEvent::NodeCrash { node, at_s });
        self
    }

    /// Degrade all links by `factor`× over `[from_s, until_s)`.
    pub fn degrade_links(mut self, factor: f64, from_s: f64, until_s: f64) -> Self {
        self.events.push(FaultEvent::LinkDegradation {
            factor,
            from_s,
            until_s,
        });
        self
    }

    /// Schedule a preemption wave taking `k` seed-chosen nodes at `at_s`.
    pub fn preemption_wave(mut self, k: usize, at_s: f64) -> Self {
        self.events.push(FaultEvent::PreemptionWave { k, at_s });
        self
    }

    /// Schedule an elastic resize after driver iteration `after_iteration`.
    pub fn elastic_resize(
        mut self,
        after_iteration: usize,
        partitions: usize,
        nodes: usize,
    ) -> Self {
        self.events.push(FaultEvent::ElasticResize {
            after_iteration,
            partitions,
            nodes,
        });
        self
    }

    /// Check the plan against a cluster. Returns every violation found;
    /// the messages are pinned by `crates/simnet/tests/chaos_negative.rs`.
    pub fn validate(&self, spec: &ClusterSpec) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let mut killed = std::collections::BTreeSet::new();
        let mut wave_kills = 0usize;
        for e in &self.events {
            match e {
                FaultEvent::NodeCrash { node, at_s } => {
                    if *node >= spec.nodes {
                        errs.push(format!(
                            "crash of node {node} out of bounds for a {}-node cluster",
                            spec.nodes
                        ));
                    }
                    if !at_s.is_finite() || *at_s < 0.0 {
                        errs.push(format!("crash time {at_s} must be finite and non-negative"));
                    }
                    if !killed.insert(*node) {
                        errs.push(format!("node {node} crashes twice in one plan"));
                    }
                }
                FaultEvent::LinkDegradation {
                    factor,
                    from_s,
                    until_s,
                } => {
                    if !factor.is_finite() || *factor < 1.0 {
                        errs.push(format!("degradation factor {factor} must be at least 1"));
                    }
                    if !from_s.is_finite()
                        || !until_s.is_finite()
                        || *from_s < 0.0
                        || until_s <= from_s
                    {
                        errs.push(format!(
                            "degradation window [{from_s}, {until_s}] is malformed"
                        ));
                    }
                }
                FaultEvent::PreemptionWave { k, at_s } => {
                    if *k == 0 {
                        errs.push("preemption wave of zero nodes does nothing".to_string());
                    }
                    if *k >= spec.nodes {
                        errs.push(format!(
                            "preemption wave of {k} nodes kills every node in a {}-node cluster",
                            spec.nodes
                        ));
                    }
                    if !at_s.is_finite() || *at_s < 0.0 {
                        errs.push(format!(
                            "preemption time {at_s} must be finite and non-negative"
                        ));
                    }
                    wave_kills = wave_kills.saturating_add(*k);
                }
                FaultEvent::ElasticResize {
                    partitions, nodes, ..
                } => {
                    if *partitions == 0 {
                        errs.push("resize to zero partitions is not a cluster".to_string());
                    }
                    if *nodes == 0 {
                        errs.push("resize to zero nodes is not a cluster".to_string());
                    }
                    if *nodes > spec.nodes {
                        errs.push(format!(
                            "resize to {nodes} nodes exceeds the {}-node cluster",
                            spec.nodes
                        ));
                    }
                }
            }
        }
        if killed.len().saturating_add(wave_kills) >= spec.nodes && spec.nodes > 0 {
            errs.push(format!(
                "fault plan kills every node: {} crashes + {} wave victims >= {} nodes",
                killed.len(),
                wave_kills,
                spec.nodes
            ));
        }
        check::verdict(errs)
    }
}

/// SplitMix64 — the only RNG chaos needs. Stateless stream: element `i`
/// of seed `s` is `splitmix64(s ^ i-th odd constant)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One resolved crash (explicit or wave-chosen) in an armed injector.
#[derive(Debug, Clone)]
struct Crash {
    node: NodeId,
    at_s: f64,
    /// True if this crash came from a preemption wave.
    wave: bool,
    /// Set once the crash has been applied to a scheduling round and its
    /// trace instant emitted.
    fired: bool,
}

#[derive(Debug, Clone)]
struct Window {
    factor: f64,
    from_s: f64,
    until_s: f64,
    /// Set once the window's `link-degraded` instant has been emitted.
    announced: bool,
}

#[derive(Debug, Clone)]
struct Resize {
    after_iteration: usize,
    partitions: usize,
    nodes: usize,
    fired: bool,
}

#[derive(Debug)]
struct Armed {
    crashes: Vec<Crash>,
    windows: Vec<Window>,
    resizes: Vec<Resize>,
    tracer: Tracer,
    injected: usize,
}

/// Runtime handle consulted by the engine, DFS and drivers during replay.
///
/// Cloning shares state — one `Mutex` over the armed plan: the engine
/// hands clones to the DFS and drivers so one armed plan is seen
/// consistently everywhere. An unarmed injector is
/// free to query — every method takes its fast path and reports "no fault".
#[derive(Debug, Clone, Default)]
pub struct ChaosInjector {
    inner: Arc<Mutex<Option<Armed>>>,
}

impl ChaosInjector {
    /// An injector with no plan armed — all queries are no-ops.
    pub fn idle() -> Self {
        Self::default()
    }

    /// The armed plan. Every update is a flag or counter write that leaves
    /// it valid, so a poisoned lock is recovered: a panic while one clone
    /// held it must not wedge the others.
    fn armed(&self) -> MutexGuard<'_, Option<Armed>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm `plan` against `spec`, validating it first and resolving
    /// preemption waves to concrete victim nodes from the plan seed.
    /// Injected events are emitted as instants on `tracer`.
    pub fn arm(
        &self,
        plan: &FaultPlan,
        spec: &ClusterSpec,
        tracer: Tracer,
    ) -> Result<(), Vec<String>> {
        plan.validate(spec)?;
        let mut crashes = Vec::new();
        let mut windows = Vec::new();
        let mut resizes = Vec::new();
        let mut taken: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
        // Resolve in event order so wave victims never collide with
        // explicit crashes, regardless of their times.
        for e in plan.events() {
            if let FaultEvent::NodeCrash { node, .. } = e {
                taken.insert(*node);
            }
        }
        let mut stream = 0u64;
        for e in plan.events() {
            match e {
                FaultEvent::NodeCrash { node, at_s } => crashes.push(Crash {
                    node: *node,
                    at_s: *at_s,
                    wave: false,
                    fired: false,
                }),
                FaultEvent::PreemptionWave { k, at_s } => {
                    let mut free: Vec<NodeId> =
                        (0..spec.nodes).filter(|n| !taken.contains(n)).collect();
                    if free.len() < *k {
                        return Err(vec![format!(
                            "preemption wave of {k} nodes cannot find victims: only {} nodes left",
                            free.len()
                        )]);
                    }
                    for _ in 0..*k {
                        let r = splitmix64(plan.seed ^ stream.wrapping_mul(0x2545_F491_4F6C_DD1D));
                        stream += 1;
                        let victim = free.remove((r as usize) % free.len());
                        taken.insert(victim);
                        crashes.push(Crash {
                            node: victim,
                            at_s: *at_s,
                            wave: true,
                            fired: false,
                        });
                    }
                }
                FaultEvent::LinkDegradation {
                    factor,
                    from_s,
                    until_s,
                } => windows.push(Window {
                    factor: *factor,
                    from_s: *from_s,
                    until_s: *until_s,
                    announced: false,
                }),
                FaultEvent::ElasticResize {
                    after_iteration,
                    partitions,
                    nodes,
                } => resizes.push(Resize {
                    after_iteration: *after_iteration,
                    partitions: *partitions,
                    nodes: *nodes,
                    fired: false,
                }),
            }
        }
        crashes.sort_by(|a, b| {
            a.at_s
                .partial_cmp(&b.at_s)
                .expect("crash times are finite")
                .then(a.node.cmp(&b.node))
        });
        *self.armed() = Some(Armed {
            crashes,
            windows,
            resizes,
            tracer,
            injected: 0,
        });
        Ok(())
    }

    /// Drop the armed plan; subsequent queries are no-ops.
    pub fn disarm(&self) {
        *self.armed() = None;
    }

    /// How many fault events have actually been injected so far (crash
    /// instants fired, windows announced, resizes applied).
    pub fn injected_events(&self) -> usize {
        self.armed().as_ref().map_or(0, |a| a.injected)
    }

    /// The crash schedule a scheduling round starting at `t0` must
    /// honour, considering every crash at `at_s < t1`: `(node, seconds
    /// relative to the round start)`, the deaths
    /// [`crate::scheduler::SlotScheduler::schedule_with`] takes.
    /// Already-dead nodes come back with relative time `<= 0` (dead from
    /// the round's start). Pure query — call
    /// [`ChaosInjector::commit_failures`] after the round is final to
    /// fire instants.
    pub fn peek_failures(&self, t0: f64, t1: f64) -> Vec<(NodeId, f64)> {
        let g = self.armed();
        let Some(a) = g.as_ref() else {
            return Vec::new();
        };
        a.crashes
            .iter()
            .filter(|c| c.at_s < t1)
            .map(|c| (c.node, c.at_s - t0))
            .collect()
    }

    /// Fire every not-yet-fired crash with `at_s < t1`: emit its
    /// `node-crash` / `preemption` instant (timestamp clamped into
    /// `[emit_t0, emit_t1]` so it stays inside the enclosing span) and
    /// return the newly dead nodes with those same clamped times — the
    /// caller triggers DFS re-replication for each, and re-replication
    /// instants must not escape the enclosing span either. The true
    /// crash time survives as the instant's `at_s` arg.
    pub fn commit_failures(&self, t1: f64, emit_t0: f64, emit_t1: f64) -> Vec<(NodeId, f64)> {
        let mut g = self.armed();
        let Some(a) = g.as_mut() else {
            return Vec::new();
        };
        let mut fresh = Vec::new();
        for c in a.crashes.iter_mut().filter(|c| !c.fired && c.at_s < t1) {
            c.fired = true;
            a.injected += 1;
            let name = if c.wave { "preemption" } else { "node-crash" };
            let t_emit = c.at_s.clamp(emit_t0, emit_t1);
            a.tracer.instant_at_in(
                CHAOS_LANE,
                name,
                "chaos",
                t_emit,
                vec![
                    ("node".to_string(), Payload::U64(c.node as u64)),
                    ("at_s".to_string(), Payload::F64(c.at_s)),
                ],
            );
            fresh.push((c.node, t_emit));
        }
        fresh
    }

    /// The multiplicative slow-down for a transfer starting at `t`.
    /// `1.0` when no degradation window covers `t`; overlapping windows
    /// compound. The first query inside a window emits its
    /// `link-degraded` instant at the query time (emitting at the
    /// window edge could escape the enclosing span).
    pub fn degradation_factor(&self, t: f64) -> f64 {
        let mut g = self.armed();
        let Some(a) = g.as_mut() else {
            return 1.0;
        };
        let mut factor = 1.0;
        for w in a.windows.iter_mut() {
            if t >= w.from_s && t < w.until_s {
                factor *= w.factor;
                if !w.announced {
                    w.announced = true;
                    a.injected += 1;
                    a.tracer.instant_at_in(
                        CHAOS_LANE,
                        "link-degraded",
                        "chaos",
                        t,
                        vec![
                            ("factor".to_string(), Payload::F64(w.factor)),
                            ("w0".to_string(), Payload::F64(w.from_s)),
                            ("w1".to_string(), Payload::F64(w.until_s)),
                        ],
                    );
                }
            }
        }
        factor
    }

    /// If the plan resizes the cluster after driver iteration
    /// `iteration`, fire that resize (once) and return
    /// `(partitions, nodes)`. Emits an `elastic-resize` instant at the
    /// tracer's current time.
    pub fn resize_after(&self, iteration: usize) -> Option<(usize, usize)> {
        let mut g = self.armed();
        let a = g.as_mut()?;
        let r = a
            .resizes
            .iter_mut()
            .find(|r| !r.fired && r.after_iteration == iteration)?;
        r.fired = true;
        a.injected += 1;
        let out = (r.partitions, r.nodes);
        let (parts, nodes, after) = (r.partitions, r.nodes, r.after_iteration);
        a.tracer.instant_at_in(
            CHAOS_LANE,
            "elastic-resize",
            "chaos",
            a.tracer.now(),
            vec![
                ("partitions".to_string(), Payload::U64(parts as u64)),
                ("nodes".to_string(), Payload::U64(nodes as u64)),
                ("after_iteration".to_string(), Payload::U64(after as u64)),
            ],
        );
        Some(out)
    }
}

/// Chaos-specific structural checks, run by `check::validate` on every
/// trace (they pass trivially when no chaos instants are present).
///
/// - A crash instant may not land strictly inside a `merge` span: the
///   merge barrier is the driver's consistency point, and the simulation
///   only injects crashes into scheduling rounds, never mid-merge. A
///   trace that claims otherwise is corrupt.
/// - A `link-degraded` window must intersect the traced run: announcing
///   a window that lies entirely outside what actually executed means
///   the injector and the trace disagree.
pub fn check_chaos(trace: &Trace) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let extent = trace
        .spans
        .iter()
        .map(|s| s.t1)
        .chain(trace.instants.iter().map(|i| i.t))
        .fold(0.0f64, f64::max);
    let eps = 1e-9 * extent.max(1.0);
    for i in trace.instants.iter().filter(|i| i.cat == "chaos") {
        match i.name.as_str() {
            "node-crash" | "preemption" => {
                for s in trace.spans.iter().filter(|s| s.cat == "merge") {
                    if i.t > s.t0 + eps && i.t < s.t1 - eps {
                        errs.push(format!(
                            "{} at {:.6} is a crash during merge barrier {}:{} [{:.6}, {:.6}]",
                            i.name, i.t, s.cat, s.name, s.t0, s.t1
                        ));
                    }
                }
            }
            "link-degraded" => {
                let w0 = i.arg_f64("w0").unwrap_or(f64::NAN);
                let w1 = i.arg_f64("w1").unwrap_or(f64::NAN);
                if !(w0 < extent + eps && w1 > -eps) || w0.is_nan() || w1.is_nan() {
                    errs.push(format!(
                        "degradation window [{w0}, {w1}] lies outside the run (trace extent {extent:.6})"
                    ));
                }
            }
            _ => {}
        }
    }
    check::verdict(errs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(7)
            .node_crash(2, 5.0)
            .degrade_links(3.0, 2.0, 8.0)
            .preemption_wave(2, 10.0)
            .elastic_resize(2, 6, 4)
    }

    #[test]
    fn valid_plan_passes() {
        plan().validate(&ClusterSpec::small()).unwrap();
        assert_eq!(plan().events().len(), 4);
        assert!(!plan().is_empty());
        assert_eq!(plan().seed(), 7);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let spec = ClusterSpec::small();
        let cases: Vec<(FaultPlan, &str)> = vec![
            (FaultPlan::new(0).node_crash(99, 1.0), "out of bounds"),
            (
                FaultPlan::new(0).node_crash(0, -1.0),
                "finite and non-negative",
            ),
            (
                FaultPlan::new(0).node_crash(1, 1.0).node_crash(1, 2.0),
                "crashes twice",
            ),
            (FaultPlan::new(0).degrade_links(0.5, 0.0, 1.0), "at least 1"),
            (
                FaultPlan::new(0).degrade_links(2.0, 5.0, 1.0),
                "is malformed",
            ),
            (FaultPlan::new(0).preemption_wave(0, 1.0), "zero nodes"),
            (
                FaultPlan::new(0).preemption_wave(spec.nodes, 1.0),
                "kills every node",
            ),
            (
                FaultPlan::new(0).elastic_resize(1, 0, 4),
                "resize to zero partitions",
            ),
            (
                FaultPlan::new(0).elastic_resize(1, 4, 0),
                "resize to zero nodes",
            ),
            (
                FaultPlan::new(0).elastic_resize(1, 4, spec.nodes + 1),
                "exceeds",
            ),
        ];
        for (p, frag) in cases {
            let errs = p.validate(&spec).unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains(frag)),
                "expected a violation containing {frag:?}, got {errs:?}"
            );
        }
        // Enough explicit crashes also kill every node.
        let mut p = FaultPlan::new(0);
        for n in 0..spec.nodes {
            p = p.node_crash(n, 1.0);
        }
        let errs = p.validate(&spec).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("kills every node")));
    }

    #[test]
    fn unarmed_injector_is_a_no_op() {
        let c = ChaosInjector::idle();
        assert!(c.peek_failures(0.0, 100.0).is_empty());
        assert!(c.commit_failures(100.0, 0.0, 100.0).is_empty());
        assert_eq!(c.degradation_factor(5.0), 1.0);
        assert_eq!(c.resize_after(1), None);
        assert_eq!(c.injected_events(), 0);
    }

    #[test]
    fn wave_victims_are_seed_deterministic_and_distinct() {
        let spec = ClusterSpec::small();
        let victims = |seed: u64| {
            let c = ChaosInjector::idle();
            c.arm(
                &FaultPlan::new(seed)
                    .node_crash(0, 1.0)
                    .preemption_wave(3, 2.0),
                &spec,
                Tracer::disabled(),
            )
            .unwrap();
            let mut v: Vec<NodeId> = c.peek_failures(0.0, 10.0).iter().map(|(n, _)| *n).collect();
            v.sort();
            v
        };
        let a = victims(42);
        let b = victims(42);
        assert_eq!(a, b, "same seed must choose the same victims");
        assert_eq!(a.len(), 4);
        let dedup: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(dedup.len(), 4, "victims must be distinct: {a:?}");
        // A different seed is free to differ; over several seeds at
        // least one must (3 victims from 5 free nodes).
        assert!(
            (0..16u64).map(victims).any(|v| v != a),
            "wave choice ignores the seed"
        );
    }

    #[test]
    fn peek_is_pure_and_commit_fires_once() {
        let spec = ClusterSpec::small();
        let c = ChaosInjector::idle();
        let tracer = Tracer::standalone();
        c.arm(&FaultPlan::new(1).node_crash(3, 5.0), &spec, tracer.clone())
            .unwrap();

        // Before the crash time: not part of the round.
        assert!(c.peek_failures(0.0, 4.0).is_empty());
        // Covering the crash: relative time.
        let f = c.peek_failures(2.0, 10.0);
        assert_eq!(f, vec![(3, 3.0)]);
        // Peek twice — pure.
        assert_eq!(c.peek_failures(2.0, 10.0), vec![(3, 3.0)]);
        assert_eq!(c.injected_events(), 0);

        let fresh = c.commit_failures(10.0, 2.0, 10.0);
        assert_eq!(fresh, vec![(3, 5.0)]);
        assert_eq!(c.injected_events(), 1);
        // Fired crashes stay visible to later rounds (dead from start)…
        assert_eq!(c.peek_failures(20.0, 30.0), vec![(3, -15.0)]);
        // …but never re-fire.
        assert!(c.commit_failures(30.0, 20.0, 30.0).is_empty());

        let tr = tracer.trace();
        let crash: Vec<_> = tr
            .instants
            .iter()
            .filter(|i| i.cat == "chaos" && i.name == "node-crash")
            .collect();
        assert_eq!(crash.len(), 1);
        assert_eq!(crash[0].arg_u64("node"), Some(3));
        assert_eq!(crash[0].arg_f64("at_s"), Some(5.0));
    }

    #[test]
    fn commit_clamps_instants_into_the_round() {
        let c = ChaosInjector::idle();
        let tracer = Tracer::standalone();
        c.arm(
            &FaultPlan::new(1).node_crash(0, 5.0),
            &ClusterSpec::small(),
            tracer.clone(),
        )
        .unwrap();
        c.commit_failures(10.0, 6.0, 8.0);
        let tr = tracer.trace();
        assert_eq!(tr.instants[0].t, 6.0, "instant clamped into [6, 8]");
        assert_eq!(tr.instants[0].arg_f64("at_s"), Some(5.0), "true time kept");
    }

    #[test]
    fn degradation_windows_compound_and_announce_once() {
        let c = ChaosInjector::idle();
        let tracer = Tracer::standalone();
        c.arm(
            &FaultPlan::new(0)
                .degrade_links(2.0, 0.0, 10.0)
                .degrade_links(3.0, 5.0, 15.0),
            &ClusterSpec::small(),
            tracer.clone(),
        )
        .unwrap();
        assert_eq!(c.degradation_factor(1.0), 2.0);
        assert_eq!(c.degradation_factor(7.0), 6.0, "overlap compounds");
        assert_eq!(c.degradation_factor(12.0), 3.0);
        assert_eq!(c.degradation_factor(20.0), 1.0);
        let tr = tracer.trace();
        let announced: Vec<_> = tr
            .instants
            .iter()
            .filter(|i| i.name == "link-degraded")
            .collect();
        assert_eq!(announced.len(), 2, "each window announces exactly once");
        assert_eq!(announced[0].arg_f64("factor"), Some(2.0));
        assert_eq!(c.injected_events(), 2);
    }

    #[test]
    fn resize_fires_once_for_its_iteration() {
        let c = ChaosInjector::idle();
        c.arm(
            &FaultPlan::new(0).elastic_resize(2, 6, 4),
            &ClusterSpec::small(),
            Tracer::standalone(),
        )
        .unwrap();
        assert_eq!(c.resize_after(1), None);
        assert_eq!(c.resize_after(2), Some((6, 4)));
        assert_eq!(c.resize_after(2), None, "a resize fires once");
    }

    #[test]
    fn disarm_clears_the_plan() {
        let c = ChaosInjector::idle();
        c.arm(
            &FaultPlan::new(0).node_crash(1, 1.0),
            &ClusterSpec::small(),
            Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(c.peek_failures(0.0, 10.0), [(1, 1.0)]);
        c.disarm();
        assert!(c.peek_failures(0.0, 10.0).is_empty());
    }

    #[test]
    fn clones_share_the_armed_plan() {
        let c = ChaosInjector::idle();
        let c2 = c.clone();
        c.arm(
            &FaultPlan::new(0).node_crash(1, 1.0),
            &ClusterSpec::small(),
            Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(
            c2.peek_failures(0.0, 10.0),
            [(1, 1.0)],
            "clones must see the same plan"
        );
        c2.commit_failures(10.0, 0.0, 10.0);
        assert_eq!(c.injected_events(), 1);
    }

    #[test]
    fn check_chaos_accepts_clean_and_chaos_free_traces() {
        check_chaos(&Trace::default()).unwrap();
        let t = Tracer::standalone();
        let id = t.begin_at("merge", "merge", 0.0);
        t.end_at(id, 5.0);
        t.instant_at_in(CHAOS_LANE, "node-crash", "chaos", 6.0, Vec::new());
        check_chaos(&t.trace()).unwrap();
    }

    #[test]
    fn check_chaos_rejects_crash_inside_merge() {
        let t = Tracer::standalone();
        let id = t.begin_at("merge", "merge", 2.0);
        t.end_at(id, 8.0);
        t.instant_at_in(CHAOS_LANE, "node-crash", "chaos", 5.0, Vec::new());
        let errs = check_chaos(&t.trace()).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("crash during merge barrier")),
            "got {errs:?}"
        );
    }

    #[test]
    fn check_chaos_rejects_window_outside_the_run() {
        let t = Tracer::standalone();
        let id = t.begin_at("run", "driver", 0.0);
        t.end_at(id, 10.0);
        t.instant_at_in(
            CHAOS_LANE,
            "link-degraded",
            "chaos",
            5.0,
            vec![
                ("factor".to_string(), Payload::F64(2.0)),
                ("w0".to_string(), Payload::F64(50.0)),
                ("w1".to_string(), Payload::F64(60.0)),
            ],
        );
        let errs = check_chaos(&t.trace()).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("degradation window") && e.contains("outside the run")),
            "got {errs:?}"
        );
    }
}
