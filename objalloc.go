// Package objalloc is a Go implementation of the object allocation and
// replication framework of Huang & Wolfson, "Object Allocation in
// Distributed Databases and Mobile Computers", ICDE 1994: a unified
// I/O-plus-communication cost model for distributed object management
// (DOM), the read-one-write-all Static Allocation algorithm (SA), the
// paper's Dynamic Allocation algorithm (DA) with join-lists and
// write-invalidation, the exact offline optimum used as the competitive
// yardstick, a message-level distributed-system simulator with quorum
// failover, and the experiment harness that regenerates the paper's
// figures.
//
// The package is a facade over the internal packages, cut to its
// traffic: it exports what the programs under examples/ and the facade
// tests use, plus the named types of what those calls take and return,
// and nothing else (the cmd/ binaries import the internal packages
// directly). The entry points are:
//
//   - Schedules and the cost model: MustParseSchedule, R, W, SC, MC,
//     ScheduleCost — the formal model of §3.
//   - Online algorithms: NewStatic, NewDynamic, Run — §4.2.
//   - The offline optimum and competitive measurement:
//     OptimalCostContext, Ratio, AsymptoticFactor — §4.1's methodology —
//     and Classify, RenderProved — the figures' cells from exact factors.
//   - The executable distributed system: NewCluster (SA/DA protocols over
//     a simulated network and per-processor databases) and NewHACluster
//     (DA with quorum-consensus failover, §2).
//   - The multi-object database directory (OpenDB) and the sharded
//     service over it (NewServer).
package objalloc

import (
	"context"
	"math/rand"

	"objalloc/internal/adaptive"
	"objalloc/internal/advisor"
	"objalloc/internal/baseline"
	"objalloc/internal/cache"
	"objalloc/internal/chaos"
	"objalloc/internal/competitive"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/engine"
	"objalloc/internal/feed"
	"objalloc/internal/ha"
	"objalloc/internal/hetero"
	"objalloc/internal/latency"
	"objalloc/internal/model"
	"objalloc/internal/multiobject"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
	"objalloc/internal/opt"
	"objalloc/internal/quorum"
	"objalloc/internal/sim"
	"objalloc/internal/storage"
	"objalloc/internal/workload"
)

// ---- Parallel evaluation engine ----
//
// Every long-running evaluation entry point (the certified adversarial
// search, the offline optimum, a figure cell's classification) takes a
// context and can be cancelled. The search's restarts run on a shared
// bounded worker pool, deterministically: for the same seed the result is
// byte-identical to a serial (Parallelism: 1) run.

// DefaultParallelism is the worker count used when a spec leaves its
// Parallelism field at zero: one worker per usable CPU.
func DefaultParallelism() int { return engine.DefaultParallelism() }

// ---- Formal model (§3.1) ----

// ProcessorID identifies a processor; processors are numbered from 0.
type ProcessorID = model.ProcessorID

// Set is a set of processors (an allocation scheme, an execution set, ...).
type Set = model.Set

// Request is a read or write request issued by a processor.
type Request = model.Request

// Schedule is a totally ordered sequence of requests to one object.
type Schedule = model.Schedule

// AllocSchedule is a schedule with execution sets: the output of a DOM
// algorithm.
type AllocSchedule = model.AllocSchedule

// NewSet returns the set of the given processors.
func NewSet(ids ...ProcessorID) Set { return model.NewSet(ids...) }

// FullSet returns {0, ..., n-1}.
func FullSet(n int) Set { return model.FullSet(n) }

// R returns a read request issued by p.
func R(p ProcessorID) Request { return model.R(p) }

// W returns a write request issued by p.
func W(p ProcessorID) Request { return model.W(p) }

// MustParseSchedule parses the paper's notation, e.g. "w2 r4 w3 r1 r2",
// panicking on a malformed schedule.
func MustParseSchedule(text string) Schedule { return model.MustParseSchedule(text) }

// ---- Cost model (§3.2, §3.3) ----

// CostModel prices control messages (CC), data messages (CD) and local
// database I/Os (CIO).
type CostModel = cost.Model

// Counts is the integer accounting of control messages, data messages and
// I/Os.
type Counts = cost.Counts

// SC returns the stationary-computing model: I/O cost normalized to 1.
func SC(cc, cd float64) CostModel { return cost.SC(cc, cd) }

// MC returns the mobile-computing model: I/O cost 0.
func MC(cc, cd float64) CostModel { return cost.MC(cc, cd) }

// ScheduleCost prices an allocation schedule executed from the initial
// allocation scheme.
func ScheduleCost(m CostModel, a AllocSchedule, initial Set) float64 {
	return cost.ScheduleCost(m, a, initial)
}

// ---- Online DOM algorithms (§4.2) ----

// Algorithm is an online distributed object management algorithm.
type Algorithm = dom.Algorithm

// Factory creates a fresh Algorithm for an initial allocation scheme and
// availability threshold t.
type Factory = dom.Factory

// NewStatic returns the read-one-write-all SA algorithm with fixed scheme
// initial.
func NewStatic(initial Set, t int) (Algorithm, error) { return dom.NewStatic(initial, t) }

// NewDynamic returns the paper's DA algorithm: core F = the t-1 smallest
// members of initial, designated processor p = the next member.
func NewDynamic(initial Set, t int) (Algorithm, error) { return dom.NewDynamic(initial, t) }

// StaticFactory and DynamicFactory are the Factory forms of SA and DA.
var (
	StaticFactory  Factory = dom.StaticFactory
	DynamicFactory Factory = dom.DynamicFactory
)

// NewConvergent returns the window-based adaptive baseline (§5.1).
func NewConvergent(initial Set, t, window int) (Algorithm, error) {
	return baseline.NewConvergent(initial, t, window)
}

// ConvergentFactory is the Factory form of NewConvergent.
func ConvergentFactory(window int) Factory { return baseline.ConvergentFactory(window) }

// KThresholdFactory returns the DA-k family: replicate after k reads.
func KThresholdFactory(k int) Factory { return baseline.KThresholdFactory(k) }

// Run feeds a schedule through an algorithm's online steps.
func Run(alg Algorithm, sched Schedule) AllocSchedule { return dom.Run(alg, sched) }

// AdaptiveSpec tunes the sharded service's adaptive engine
// (ServerEngineAdaptive): a per-object controller that estimates the
// read/write mix over a sliding window and switches the object between SA
// and DA live, billing protocol transitions at paper prices. The zero
// value means the defaults (window 64, hysteresis 4, start auto, region
// test on).
type AdaptiveSpec = adaptive.Spec

// ---- Offline optimum and competitiveness (§4.1) ----

// OptimalCostContext returns the cost of the optimal offline t-available
// DOM algorithm on the schedule — the competitive yardstick. The DP checks
// the context between requests and aborts with ctx.Err() on cancellation.
func OptimalCostContext(ctx context.Context, m CostModel, sched Schedule, initial Set, t int) (float64, error) {
	return opt.SolveCostContext(ctx, m, sched, initial, t)
}

// OptimalResult carries the optimum's cost and one optimal allocation
// schedule.
type OptimalResult = opt.Result

// OptimalContext additionally reconstructs an optimal allocation schedule.
func OptimalContext(ctx context.Context, m CostModel, sched Schedule, initial Set, t int) (*OptimalResult, error) {
	return opt.SolveContext(ctx, m, sched, initial, t)
}

// Measurement compares an algorithm's cost against the optimum on one
// schedule.
type Measurement = competitive.Measurement

// Ratio measures COST_A / COST_OPT on one schedule.
func Ratio(m CostModel, f Factory, sched Schedule, initial Set, t int) (Measurement, error) {
	return competitive.Ratio(m, f, sched, initial, t)
}

// SABound is Theorem 1's competitiveness factor (1+cc+cd in SC; +Inf in MC
// where SA is not competitive).
func SABound(m CostModel) float64 { return competitive.SABound(m) }

// DABound is Theorems 2-4: 2+2cc (SC), 2+cc (SC with cd>1), 2+3cc/cd (MC).
func DABound(m CostModel) float64 { return competitive.DABound(m) }

// Proved is one (cc, cd) cell classified from what is proved (Classify):
// its Mark, SA's exact factor, DA's exact factor at n = 3 where the graph
// was built, and the witness period that certifies an 'S'.
type Proved = competitive.Proved

// Classify marks the cell at m as the paper's figures 1 and 2 would, from
// exact factors only: 'x' where cc > cd, the paper's 'S' or 'D' where its
// bounds decide, and in the band they leave open 'S' from N processors on
// where DA's exact factor at n = 3 (a work-function graph, built at a
// price scale up to 10) or one of the nemesis families on 3 to 6
// processors beats SA's exact 1+cc+cd, else 'd' where DA's factor at n = 3
// is below SA's, '·' where no graph was built and '?' otherwise; the
// figure tools mark their cells with the same witnesses. Cancelling ctx
// aborts the graph's build.
func Classify(ctx context.Context, m CostModel) (Proved, error) {
	return competitive.Classify(ctx, m, competitive.Witnesses())
}

// RenderProved draws classified cells as an ASCII map in the style of the
// paper's figures: each cell's mark, or, with analytic, the paper's region.
func RenderProved(cells []Proved, analytic bool) string {
	return competitive.RenderProved(cells, analytic)
}

// SearchConfig drives DA's adversarial period search: hill-climbing over
// periods, scored by their exact factor (AsymptoticFactor).
type SearchConfig = competitive.SearchConfig

// SearchResult is the worst period found; its factor bounds DA's from below.
type SearchResult = competitive.SearchResult

// SearchWorstCaseContext looks for periods maximizing DA's exact factor on
// their endless repetition, from the nemesis families, and shrinks the
// best to a 1-minimal period. Restarts run concurrently (cfg.Parallelism),
// each on an RNG stream derived from (Seed, restart index), so the outcome
// is identical for any parallelism. Cancelling ctx aborts the restarts.
func SearchWorstCaseContext(ctx context.Context, cfg SearchConfig) (SearchResult, error) {
	return competitive.Search(ctx, cfg)
}

// AsymptoticFactor is SA's or DA's exact asymptotic competitive factor on
// the endless repetition of period, the limit of COST_A / COST_OPT, at
// prices some q ≤ 10 000 makes whole; it refuses other algorithms, whose
// scheme is not their whole state. Cancelling ctx aborts OPT's DP.
func AsymptoticFactor(ctx context.Context, m CostModel, f Factory, period Schedule, initial Set, t int) (float64, error) {
	return competitive.Factor(ctx, m, f, period, initial, t)
}

// ---- Executable distributed system ----

// Version is one version of the replicated object.
type Version = storage.Version

// Store is a processor's local database.
type Store = storage.Store

// NewMemStore returns an in-memory local database.
func NewMemStore() Store { return storage.NewMem() }

// DiskOptions configures a disk-backed local database.
type DiskOptions = storage.DiskOptions

// OpenDiskStore opens (or recovers) a disk-backed local database at path.
func OpenDiskStore(path string, opts DiskOptions) (Store, error) {
	return storage.OpenDisk(path, opts)
}

// Protocol selects the replication protocol a cluster executes.
type Protocol = sim.Protocol

// Protocols.
const (
	ProtocolSA = sim.SA
	ProtocolDA = sim.DA
)

// ClusterConfig describes a simulated distributed system.
type ClusterConfig = sim.Config

// Cluster is a running distributed system: one protocol handler per
// processor, a billed message network, and per-processor local databases,
// run by a single-threaded deterministic delivery loop. It is not safe for
// concurrent use; one owner at a time. Build one with NewCluster (see
// options.go for the ClusterOption family).
type Cluster = sim.Cluster

// QuorumCluster is a majority/weighted-voting replicated system. It is not
// safe for concurrent use; one owner at a time. Build one with
// NewQuorumCluster.
type QuorumCluster = quorum.Cluster

// HACluster runs DA in normal mode and fails over to quorum consensus (§2) when
// a member of F ∪ {p} crashes, failing back after missing-writes recovery.
// It is not safe for concurrent use; one owner at a time. Build one with
// NewHACluster.
type HACluster = ha.Cluster

// ---- Chaos layer: deterministic faults and invariant-checked runs ----

// FaultPlan describes the adversarial behavior of every network link:
// seeded per-message loss, duplication, bounded delay/reordering, and
// link flaps. Install one through ClusterConfig.Faults (and the quorum/HA
// equivalents); all randomness derives from the seed, so faulted runs are
// replayable.
type FaultPlan = netsim.FaultPlan

// RetryPolicy tunes the engines' retransmission discipline (capped
// exponential backoff, bounded attempts). The zero value enables retries
// exactly when a FaultPlan is active.
type RetryPolicy = netsim.RetryPolicy

// ChaosEngine selects the protocol stack a chaos scenario exercises.
type ChaosEngine = chaos.Engine

// Chaos engines.
const (
	ChaosQuorum = chaos.EngineQuorum
	ChaosHA     = chaos.EngineHA
)

// ChaosScenario composes a seeded workload with a fault plan over one
// engine; see ChaosContext.
type ChaosScenario = chaos.Scenario

// ChaosStep is one scenario action (read, write, crash, restart).
type ChaosStep = chaos.Step

// ChaosResult summarizes a chaos run: operation counts, cost accounting,
// reliability overhead, and any invariant violations.
type ChaosResult = chaos.Result

// ChaosContext runs an invariant-checked chaos scenario: after every step
// it asserts reads return the latest committed version, replicas never
// regress, the object stays t-available, and (for ChaosHA) DA↔quorum
// transitions happen only on real membership changes. Cancelling the
// context stops the run between steps.
func ChaosContext(ctx context.Context, sc ChaosScenario, o *Obs) (ChaosResult, error) {
	return chaos.RunContext(ctx, sc, o)
}

// ChaosSearchContext runs count seed-derived variants of the base
// scenario concurrently (workers ≤ 0 means one per core) and returns the
// results in variant order — byte-reproducible at any parallelism.
func ChaosSearchContext(ctx context.Context, base ChaosScenario, count, workers int) ([]ChaosResult, error) {
	return chaos.Search(ctx, base, count, workers)
}

// ParseFaults decodes the textual fault-schedule syntax, e.g.
// "loss=0.1,dup=0.05,delay=0.2,delaymax=4"; FormatFaults is its inverse.
func ParseFaults(s string) (FaultPlan, error) { return netsim.ParseFaults(s) }

// FormatFaults renders a plan in ParseFaults syntax.
func FormatFaults(p FaultPlan) string { return netsim.FormatFaults(p) }

// ---- Offline approximations for large systems ----

// BeamResult carries the beam-search approximation of the offline optimum.
type BeamResult = opt.BeamResult

// OptimalBeamContext approximates the offline optimum by beam search — an
// upper bound on the optimal cost that scales past the exact solver's
// 16-processor limit. The search checks the context between requests and
// aborts with ctx.Err() when it is cancelled.
func OptimalBeamContext(ctx context.Context, m CostModel, sched Schedule, initial Set, t, width int) (*BeamResult, error) {
	return opt.BeamContext(ctx, m, sched, initial, t, width)
}

// ---- Heterogeneous costs (§6 extension) ----

// HeteroModel prices a heterogeneous system: per-link message costs and
// per-processor I/O costs.
type HeteroModel = hetero.Model

// UniformHetero embeds a homogeneous model on n processors.
func UniformHetero(n int, m CostModel) HeteroModel { return hetero.Uniform(n, m) }

// ClusteredHetero builds a two-cluster topology (LAN prices within each
// cluster, WAN prices between them).
func ClusteredHetero(n, split int, intraCC, intraCD, interCC, interCD, cio float64) HeteroModel {
	return hetero.Clustered(n, split, intraCC, intraCD, interCC, interCD, cio)
}

// TopologyAwareDynamicFactory returns DA with topology-aware read routing:
// remote reads are served by the cheapest member of F for each reader.
func TopologyAwareDynamicFactory(m HeteroModel) Factory {
	return hetero.AwareDynamicFactory(m)
}

// ---- Response-time simulation (§1.2's motivation) ----

// LatencyProfile describes transmission, propagation and disk service
// times, and whether the network is a contended shared bus.
type LatencyProfile = latency.Profile

// LatencyResult carries per-request response times and utilizations.
type LatencyResult = latency.Result

// SimulateLatency pushes an allocation schedule through the discrete-event
// resource model and returns response times.
func SimulateLatency(p LatencyProfile, a AllocSchedule, initial Set, arrivals []float64) (*LatencyResult, error) {
	return latency.Simulate(p, a, initial, arrivals)
}

// UniformArrivals returns n arrival times at the given open-loop rate.
func UniformArrivals(n int, rate float64) []float64 { return latency.UniformArrivals(n, rate) }

// SimulateLatencyClosedLoop runs the schedule with per-processor
// closed-loop clients separated by thinkTime.
func SimulateLatencyClosedLoop(p LatencyProfile, a AllocSchedule, initial Set, thinkTime float64) (*LatencyResult, error) {
	return latency.SimulateClosedLoop(p, a, initial, thinkTime)
}

// ---- Workload generators ----

// UniformWorkload draws length requests uniformly over n processors with
// the given write probability.
func UniformWorkload(rng *rand.Rand, n, length int, pWrite float64) Schedule {
	return workload.Uniform(rng, n, length, pWrite)
}

// ZipfWorkload draws issuing processors from a Zipf distribution with
// exponent s > 1.
func ZipfWorkload(rng *rand.Rand, n, length int, pWrite, s float64) Schedule {
	return workload.Zipf(rng, n, length, pWrite, s)
}

// MobileTrace models location tracking: processor 1 moves (writes),
// processors 2..n-1 look the location up (§1.1, §2).
func MobileTrace(rng *rand.Rand, n, moves int, readsPerMove float64) Schedule {
	return workload.MobileTrace(rng, n, moves, readsPerMove)
}

// PublishingTrace models a collaboratively edited document (§1.1).
func PublishingTrace(rng *rand.Rand, n, revisions int, authors Set, readersPerRevision int) Schedule {
	return workload.Publishing(rng, n, revisions, authors, readersPerRevision)
}

// AppendOnlyTrace models the satellite object sequence of §6.2.
func AppendOnlyTrace(rng *rand.Rand, n, objects int, readsPerObject float64) Schedule {
	return workload.AppendOnly(rng, n, objects, readsPerObject)
}

// ---- Algorithm advisor ----

// AdvisorChoice is the advisor's recommendation.
type AdvisorChoice = advisor.Choice

// Advisor choices.
const (
	AdviseSA     = advisor.ChooseSA
	AdviseDA     = advisor.ChooseDA
	AdviseEither = advisor.ChooseEither
)

// Advise recommends SA or DA from the cost model alone, applying the
// paper's figures 1 and 2.
func Advise(m CostModel) AdvisorChoice { return advisor.Analytic(m) }

// Advice carries the workload-based recommendation.
type Advice = advisor.Advice

// AdviseForWorkload measures SA and DA (and any extra candidates) on a
// workload sample against the offline optimum and recommends the cheapest.
func AdviseForWorkload(m CostModel, sample Schedule, initial Set, t int) (*Advice, error) {
	return advisor.Recommend(m, sample, initial, t, nil)
}

// ---- Bounded storage (§5.2 contrast) ----

// CacheReplacement selects the page-replacement policy of the bounded-
// storage manager.
type CacheReplacement = cache.Replacement

// Replacement policies.
const (
	CacheLRU = cache.LRU
	CacheMRU = cache.MRU
)

// CacheConfig describes a bounded-storage multi-object replica manager.
type CacheConfig = cache.Config

// CacheManager manages replicas under per-processor storage limits — the
// CDVM setting the paper contrasts itself with in §5.2.
type CacheManager = cache.Manager

// NewCacheManager creates the bounded-storage manager.
func NewCacheManager(cfg CacheConfig) (*CacheManager, error) { return cache.New(cfg) }

// ---- Append-only object feeds (§6.2) ----

// FeedPolicy selects permanent (SA) or temporary (DA) standing orders.
type FeedPolicy = feed.Policy

// TemporaryOrders is the DA mapping of feed standing orders: t−1
// permanent orders plus temporary ones that lapse at the next append. The
// zero FeedPolicy is the SA mapping, permanent orders.
const TemporaryOrders = feed.TemporaryOrders

// FeedConfig describes an append-only object sequence deployment.
type FeedConfig = feed.Config

// Feed is a running append-only object sequence (the §6.2 satellite model).
// It is not safe for concurrent use; one owner at a time.
type Feed = feed.Feed

// OpenFeed starts a feed.
func OpenFeed(cfg FeedConfig) (*Feed, error) { return feed.Open(cfg) }

// ---- Instrumentation layer ----

// Obs bundles the instrumentation a run carries: a metric Registry, a
// structured event Sink, and a progress Observer. Any field (and the *Obs
// itself) may be nil; unobserved code paths pay one nil-check. It is the
// type of the Obs field of every evaluation spec and of ChaosContext's
// last argument; the cmd drivers build theirs with internal/obs.
type Obs = obs.Obs

// ---- Multi-object database ----

// DBConfig describes a multi-object database directory.
type DBConfig = multiobject.Config

// DB is a directory of independently managed replicated objects. It has
// one owner and is not safe for concurrent use: it takes no lock, so
// goroutines that share one must order their calls themselves.
type DB = multiobject.DB

// OpenDB creates an empty multi-object database.
func OpenDB(cfg DBConfig) (*DB, error) { return multiobject.Open(cfg) }
