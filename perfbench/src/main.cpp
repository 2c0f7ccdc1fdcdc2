/// \file main.cpp
/// The repository benchmark's driver binary. One process runs one workload
/// (see README.md) for whole rounds until --seconds have passed; every
/// round builds the overlay from the seed, runs warm-up plus measured
/// steps in one ScenarioRunner::run call, checks the outcome with the
/// benchmark's own code, and prints one JSON line of raw figures. run.py
/// builds this binary, turns the rounds into metrics and prints the result.
///
///   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
///             [--spans FILE]
///
/// --trace 1 alternates untraced and traced rounds (the traced ones go
/// through wrappers.h and, in perfbench_traced, the shims) and writes every
/// traced span to --spans FILE when the run ends.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "metrics/emit.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "spans.h"
#include "wrappers.h"

namespace {

using dex::graph::NodeId;
using dex::sim::HealingOverlay;

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  std::string backend;
  std::size_t n0 = 0;
  std::string strategy;
  dex::sim::StrategyOptions strategy_opts;
  std::size_t batch_size = 1;
  /// Unmeasured steps (they reach the observer first), then measured ones.
  std::size_t warmup = 0;
  std::size_t measured = 0;
  /// The speed probe runs after every probe_every-th step record, over a
  /// graph of probe_nodes nodes.
  std::size_t probe_every = 1;
  std::uint32_t probe_nodes = 1u << 17;
  dex::sim::TrafficSpec traffic;
  bool event_engine = false;
  std::string latency = "fixed:0";
  double loss = 0.0;
  dex::serve::ServeSpec serve;
  /// Run after every round's checks with kFixedPhaseSeed, not --seed, and
  /// not timed: a companion whose operations fail because of a known
  /// program fault (README, "Known faults"). Its fixed input makes the same
  /// operations fail in every round, and they are counted as failed.
  std::shared_ptr<const Workload> fixed_phase;
};

constexpr std::uint64_t kFixedPhaseSeed = 5;

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  {
    // Routing-heavy: Zipf traffic over a small hot keyspace repeats
    // (origin, home) pairs; one churn event per step, alternating insert
    // and delete at uniformly random nodes so the per-event heal counts do
    // not ride on the seed's insert/delete mix.
    Workload w;
    w.name = "kv-zipf";
    w.backend = "dex-amortized";
    w.n0 = 20000;
    w.strategy = "oscillate";
    w.strategy_opts.half_period = 1;
    w.warmup = 16;
    w.measured = 48;
    w.traffic.workload = "zipf";
    w.traffic.ops_per_step = 64;
    w.traffic.keyspace = 4096;
    w.traffic.zipf_s = 1.1;
    w.traffic.read_fraction = 0.9;
    out.push_back(w);
  }
  {
    // Churn-heavy: every step is an 8-event §5 batch (burst_every 0, so
    // one kind of step), with light uniform traffic.
    Workload w;
    w.name = "churn-burst";
    w.backend = "dex-amortized";
    w.n0 = 50000;
    w.strategy = "burst";
    w.batch_size = 8;
    w.warmup = 8;
    w.measured = 96;
    w.probe_every = 2;
    w.traffic.workload = "uniform";
    w.traffic.ops_per_step = 4;
    w.traffic.keyspace = 65536;
    w.traffic.read_fraction = 0.75;
    out.push_back(w);
  }
  {
    // Event engine and serving: worst-case DEX racing its own churn
    // (latency above the 1-tick injection period, 5% loss), closed-loop
    // clients over a keyspace far larger than the ops, half writes. Churn
    // only inserts, from 500 nodes: the spare vertices run short near step
    // 1215 (1206-1227 on seeds 1-6), which starts a staggered type-2
    // inflation that runs for about 140 steps, so the measured window
    // (steps 1152-1663) holds the whole rebuild and twice as many ordinary
    // steps. The queue depth equals the client count, so requests alone
    // never overflow a queue (at depth 8 on 1000 nodes, one seed in four
    // shed an operation).
    Workload w;
    w.name = "serve-uniform";
    w.backend = "dex-worstcase";
    w.n0 = 500;
    w.strategy = "insert-only";
    w.warmup = 1152;
    w.measured = 512;
    w.probe_every = 16;
    // This workload's overlay is far smaller than the other two, so a probe
    // of 1.1 MiB tracks its speed best (README, "Reference time").
    w.probe_nodes = 1u << 15;
    w.traffic.workload = "uniform";
    w.traffic.ops_per_step = 5;
    w.traffic.keyspace = std::size_t{1} << 20;
    w.traffic.read_fraction = 0.5;
    w.event_engine = true;
    w.latency = "uniform:1,4";
    w.loss = 0.05;
    w.serve.enabled = true;
    w.serve.clients = 32;
    w.serve.queue_depth = 32;
    // Deletions in the racing regime: the same serving set-up on 300
    // nodes under alternating insert/delete churn. A deletion can land
    // between a step's apply and its settle; an operation completing in
    // that window routes to the deleted home and fails. How many do depends
    // on the seed, so this phase runs with kFixedPhaseSeed, on which 5 of
    // its 3750 operations fail every time.
    Workload d = w;
    d.name = "serve-uniform/deletions";
    d.n0 = 300;
    d.strategy = "oscillate";
    d.strategy_opts.half_period = 1;
    d.warmup = 1;
    d.measured = 749;
    w.fixed_phase = std::make_shared<const Workload>(d);
    out.push_back(w);
  }
  return out;
}

dex::sim::ScenarioSpec make_spec(const Workload& w, std::uint64_t seed) {
  dex::sim::ScenarioSpec spec;
  spec.seed = seed;
  spec.steps = w.warmup + w.measured;
  spec.batch_size = w.batch_size;
  spec.burst_every = 0;
  spec.traffic = w.traffic;
  spec.label = w.name;
  if (w.event_engine) {
    spec.event.enabled = true;
    spec.event.latency = *dex::sim::LatencyModel::parse(w.latency);
    spec.event.loss_rate = w.loss;
  }
  spec.serve = w.serve;
  return spec;
}

// ------------------------------------------------------------- checks
// Computed from the overlay's public read surface with the benchmark's own
// graph code, apart from the program's audits.

using Adjacency = std::vector<std::vector<NodeId>>;

/// The live graph as adjacency lists over live_ports; nullopt when the
/// overlay does not offer live_ports for some alive node right now.
std::optional<Adjacency> live_adjacency(const HealingOverlay& ov,
                                        const std::vector<NodeId>& alive) {
  NodeId cap = 0;
  for (NodeId u : alive) cap = std::max(cap, u + 1);
  Adjacency adj(cap);
  for (NodeId u : alive) {
    if (!ov.live_ports(u, adj[u])) return std::nullopt;
  }
  return adj;
}

std::vector<std::int64_t> bfs(const Adjacency& adj, NodeId src) {
  std::vector<std::int64_t> dist(adj.size(), -1);
  std::deque<NodeId> queue{src};
  dist[src] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : adj[u]) {
      if (v < dist.size() && dist[v] < 0) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

constexpr std::size_t kRouteSamples = 24;

void check_outcome(const Workload& w, const HealingOverlay& ov,
                   const dex::sim::ScenarioResult& res, std::uint64_t seed,
                   Checks& c) {
  const std::vector<NodeId> alive = ov.alive_nodes();
  c.require(res.start_n + res.total_inserts - res.total_deletes ==
                    res.final_n &&
                res.final_n == alive.size() && ov.n() == alive.size(),
            "population: start_n + inserts - deletes == final_n == alive");

  const auto adj = live_adjacency(ov, alive);
  c.require(adj.has_value(), "live_ports unavailable at the end of the run");
  if (!adj) return;

  // Degree bound 3 * 4ζ (DEX: ζ = 8 for the p-cycle family).
  const std::size_t max_deg = 3 * 4 * dex::Params{}.zeta;
  std::size_t worst = 0;
  for (NodeId u : alive) worst = std::max(worst, (*adj)[u].size());
  c.require(worst <= max_deg, "degree bound 3*4*zeta exceeded");

  const auto from0 = bfs(*adj, alive.front());
  std::size_t reached = 0;
  for (NodeId u : alive) reached += from0[u] >= 0 ? 1 : 0;
  c.require(reached == alive.size(), "final live graph is disconnected");

  // Route validity on a seeded sample of pairs: a walk along live edges
  // from u to v, no shorter than the BFS distance.
  dex::graph::CsrView csr;
  csr.build_from_ports(ov.alive_mask(),
                       [&ov](NodeId u, std::vector<NodeId>& out) {
                         (void)ov.live_ports(u, out);
                       });
  std::uint64_t rng = seed ^ 0x5eedbe7c4ecc5ULL;
  for (std::size_t i = 0; i < kRouteSamples; ++i) {
    const NodeId u = alive[splitmix(rng) % alive.size()];
    const NodeId v = alive[splitmix(rng) % alive.size()];
    const auto path = ov.route(u, v, csr);
    bool walk = !path.empty() && path.front() == u && path.back() == v;
    for (std::size_t k = 1; walk && k < path.size(); ++k) {
      const auto& row = (*adj)[path[k - 1]];
      walk = std::find(row.begin(), row.end(), path[k]) != row.end();
    }
    c.require(walk, "route is not a live walk from u to v");
    const auto du = bfs(*adj, u);
    c.require(walk && static_cast<std::int64_t>(path.size()) - 1 >= du[v],
              "route shorter than the BFS distance");
  }

  for (const auto& rec : res.trace) {
    if (rec.op_hops < rec.opt_hops) {
      c.require(false, "op_hops < opt_hops in a step record");
      break;
    }
  }

  if (w.serve.enabled) {
    const std::uint64_t offered =
        static_cast<std::uint64_t>(w.warmup + w.measured) *
        w.traffic.ops_per_step;
    c.require(res.serve_completed + res.serve_shed == offered,
              "serve: completed + shed != offered");
    c.require(res.serve_latency.count() == res.serve_completed,
              "serve: latency histogram count != completed");
  }
}

// ---------------------------------------------------------- speed probe
// The machine this benchmark runs on shares its cores and caches with other
// tenants, and how fast it executes the same instructions drifts by tens of
// percent over minutes (user CPU time drifts with wall time, so this is not
// scheduling). Every round therefore also times a fixed kernel of the
// benchmark's own between steps: one full BFS pass over a seeded random
// 6-regular graph (2^17 nodes, 4.5 MiB, larger than a core's L2, on the two
// large workloads; 2^15 nodes on serve-uniform), the
// memory access pattern of the program's routing and BFS oracles. run.py
// expresses each round's wall figures in units of the round's median probe
// time (README: "Reference time").

class SpeedProbe {
 public:
  /// Three seeded random Hamiltonian cycles, so every node has exactly
  /// kDegree neighbours and the CSR is filled in place (the probe's memory
  /// is its four arrays, allocated once; main() leaves it out of the peak
  /// RSS). queue_ holds each cycle's permutation while the graph is built.
  explicit SpeedProbe(std::uint32_t nodes)
      : nodes_(nodes), offsets_(nodes + 1), targets_(nodes * kDegree),
        dist_(nodes), queue_(nodes) {
    for (std::uint32_t i = 0; i <= nodes_; ++i) offsets_[i] = i * kDegree;
    std::uint64_t state = 0xca11b7a7e5eedULL;
    for (std::uint32_t cycle = 0; cycle < kDegree / 2; ++cycle) {
      std::vector<std::uint32_t>& perm = queue_;
      for (std::uint32_t i = 0; i < nodes_; ++i) perm[i] = i;
      for (std::uint32_t i = nodes_ - 1; i > 0; --i) {
        std::swap(perm[i], perm[splitmix(state) % (i + 1)]);
      }
      for (std::uint32_t i = 0; i < nodes_; ++i) {
        const std::uint32_t a = perm[i];
        targets_[a * kDegree + 2 * cycle] = perm[(i + 1) % nodes_];
        targets_[a * kDegree + 2 * cycle + 1] = perm[(i + nodes_ - 1) % nodes_];
      }
    }
  }

  /// Wall milliseconds of one BFS pass (from a different source each time).
  double measure_ms() {
    const std::int64_t t0 = perfbench::now_ns();
    bfs_pass(pass_++);
    return static_cast<double>(perfbench::now_ns() - t0) / 1e6;
  }

 private:
  void bfs_pass(std::uint32_t pass) {
    const std::uint32_t n = nodes_;
    std::fill(dist_.begin(), dist_.end(), ~0u);
    const std::uint32_t src = (pass * 7919u) % n;
    std::uint32_t head = 0, tail = 0;
    dist_[src] = 0;
    queue_[tail++] = src;
    while (head < tail) {
      const std::uint32_t u = queue_[head++];
      for (std::uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        const std::uint32_t v = targets_[i];
        if (dist_[v] == ~0u) {
          dist_[v] = dist_[u] + 1;
          queue_[tail++] = v;
        }
      }
    }
    // The graph is connected by construction; a short pass means the
    // kernel was optimized away or broken.
    if (tail != n) std::abort();
  }

  static constexpr std::uint32_t kDegree = 6;

  std::uint32_t nodes_;
  std::vector<std::uint32_t> offsets_, targets_, dist_, queue_;
  std::uint32_t pass_ = 0;
};

// -------------------------------------------------------------- rounds

/// Sums over the measured step records (all deterministic counts).
struct Tally {
  std::uint64_t steps = 0, events = 0, batch_steps = 0, type2_steps = 0;
  std::uint64_t rounds = 0, messages = 0, topology = 0, walk_epochs = 0;
  std::uint64_t ops = 0, failed = 0, op_hops = 0, opt_hops = 0;
  std::uint64_t moved_keys = 0, rehash_messages = 0, dropped = 0;

  void add(const dex::sim::StepRecord& r) {
    ++steps;
    const std::uint64_t ev = r.batch_inserts + r.batch_deletes;
    events += ev;
    batch_steps += ev > 1 ? 1 : 0;
    type2_steps += r.used_type2 ? 1 : 0;
    rounds += r.cost.rounds;
    messages += r.cost.messages;
    topology += r.cost.topology_changes;
    walk_epochs += r.walk_epochs;
    ops += r.ops;
    failed += r.failed_lookups + r.failed_writes + r.shed + r.timeouts;
    op_hops += r.op_hops;
    opt_hops += r.opt_hops;
    moved_keys += r.moved_keys;
    rehash_messages += r.rehash_messages;
    dropped += r.dropped;
  }
};

struct LayerSum {
  std::uint64_t calls = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string num_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += num(values[i]);
  }
  return out + "]";
}

/// Per-layer call counts, total and self time over the measured steps'
/// spans (step id >= warm-up count).
std::map<std::string, LayerSum> layer_sums(const std::vector<perfbench::Span>& spans,
                                           std::size_t first,
                                           std::uint32_t warmup) {
  std::vector<double> child_us(spans.size(), 0.0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  std::map<std::string, LayerSum> out;
  for (std::size_t i = first; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.step < warmup) continue;
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    auto& l = out[s.name];
    ++l.calls;
    l.total_us += us;
    l.self_us += us - child_us[i];
  }
  return out;
}

/// KV operations offered over whole runs, and the ones that failed.
struct OpCount {
  std::uint64_t attempted = 0, lookups = 0, writes = 0, shed = 0;
  std::uint64_t timeouts = 0;

  void add(const Workload& w, const dex::sim::ScenarioResult& res) {
    attempted +=
        w.serve.enabled ? res.serve_completed + res.serve_shed : res.total_ops;
    lookups += res.total_failed_lookups;
    writes += res.total_failed_writes;
    shed += res.serve_shed;
    timeouts += res.serve_timeouts;
  }
  void add(const OpCount& o) {
    attempted += o.attempted;
    lookups += o.lookups;
    writes += o.writes;
    shed += o.shed;
    timeouts += o.timeouts;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return lookups + writes + shed + timeouts;
  }
};

/// Runs a workload's fixed phase (untimed, untraced) and checks it like a
/// round.
void run_fixed_phase(const Workload& d, OpCount& ops, Checks& c) {
  auto overlay = dex::sim::make_overlay(d.backend, d.n0, kFixedPhaseSeed);
  auto strategy = dex::sim::make_strategy(d.strategy, d.strategy_opts);
  dex::sim::ScenarioRunner runner(*overlay, *strategy,
                                  make_spec(d, kFixedPhaseSeed));
  const dex::sim::ScenarioResult res = runner.run();
  Checks own;
  own.require(res.trace.size() == d.warmup + d.measured,
              "trace length differs from the step count");
  check_outcome(d, *overlay, res, kFixedPhaseSeed, own);
  for (const auto& f : own.failures) c.failures.push_back(d.name + ": " + f);
  ops.add(d, res);
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

/// One round: set-up, warm-up and measured steps, checks. Prints one JSON
/// line; returns its wall time in seconds.
double run_round(const Workload& w, const RunOptions& opt, int index,
                 bool traced, perfbench::SpanLog& log, SpeedProbe& probe) {
  const std::int64_t t0 = perfbench::now_ns();
  std::unique_ptr<HealingOverlay> overlay =
      dex::sim::make_overlay(w.backend, w.n0, opt.seed);
  auto strategy = dex::sim::make_strategy(w.strategy, w.strategy_opts);
  if (!overlay || !strategy) {
    std::fprintf(stderr, "perfbench: bad backend or strategy\n");
    std::exit(2);
  }
  std::optional<perfbench::TracedOverlay> traced_overlay;
  std::optional<perfbench::TracedStrategy> traced_strategy;
  HealingOverlay* ov = overlay.get();
  dex::adversary::Strategy* st = strategy.get();
  if (traced) {
    ov = &traced_overlay.emplace(*overlay);
    st = &traced_strategy.emplace(*strategy);
  }

  std::vector<std::int64_t> stamps;
  stamps.reserve(w.warmup + w.measured);
  Tally tally;
  const std::size_t first_span = log.spans().size();
  dex::sim::ScenarioRunner runner(*ov, *st, make_spec(w, opt.seed));
  // stamps[i]: record i reached the observer; resume[i]: the observer
  // handed control back (after the probe, when one ran). Step intervals
  // run from one resume to the next stamp, so they exclude the probes.
  std::vector<std::int64_t> resume;
  std::vector<double> probes;
  resume.reserve(w.warmup + w.measured);
  runner.set_observer([&](const dex::sim::StepRecord& rec, HealingOverlay&) {
    stamps.push_back(perfbench::now_ns());
    if (stamps.size() % w.probe_every == 0) {
      probes.push_back(probe.measure_ms());
    }
    resume.push_back(perfbench::now_ns());
    if (stamps.size() > w.warmup) tally.add(rec);
    log.set_step(static_cast<std::uint32_t>(stamps.size()));
  });
  if (traced) {
    log.set_step(0);
    perfbench::SpanLog::activate(&log);
  }
  const dex::sim::ScenarioResult res = runner.run();
  perfbench::SpanLog::activate(nullptr);

  double emit_ms = 0.0;
  if (traced) {
    const std::int64_t e0 = perfbench::now_ns();
    const std::string summary = dex::sim::summary_json(res);
    const std::string csv = dex::sim::trace_csv(res);
    emit_ms = static_cast<double>(perfbench::now_ns() - e0) / 1e6;
    if (summary.empty() || csv.empty()) std::exit(3);
  }

  Checks checks;
  const std::size_t total_steps = w.warmup + w.measured;
  checks.require(stamps.size() == total_steps,
                 "observer saw " + std::to_string(stamps.size()) +
                     " step records, expected " + std::to_string(total_steps));
  checks.require(res.trace.size() == total_steps,
                 "trace length differs from the step count");
  if (stamps.size() == total_steps) {
    check_outcome(w, *overlay, res, opt.seed, checks);
  }
  // The observer's own sums over all records must match the result.
  Tally all;
  for (const auto& rec : res.trace) all.add(rec);
  checks.require(all.ops == res.total_ops && all.op_hops == res.total_op_hops &&
                     all.opt_hops == res.total_opt_hops,
                 "step records disagree with the result's traffic totals");

  OpCount ops;
  ops.add(w, res);
  OpCount fixed_ops;
  if (w.fixed_phase) run_fixed_phase(*w.fixed_phase, fixed_ops, checks);
  ops.add(fixed_ops);
  const std::uint64_t delivered =
      tally.ops > tally.failed ? tally.ops - tally.failed : 0;

  const std::size_t w0 = w.warmup;
  const bool timed = stamps.size() == total_steps && w0 >= 1;
  std::vector<double> step_ms;
  double setup_s = 0.0;
  if (timed) {
    // Set-up: overlay construction through the last warm-up record, less
    // the probes run during warm-up.
    std::int64_t setup_ns = stamps[w0 - 1] - t0;
    for (std::size_t i = 0; i + 1 < w0; ++i) setup_ns -= resume[i] - stamps[i];
    setup_s = static_cast<double>(setup_ns) / 1e9;
    for (std::size_t i = w0; i < stamps.size(); ++i) {
      step_ms.push_back(static_cast<double>(stamps[i] - resume[i - 1]) / 1e6);
    }
  }
  double measured_ms = 0.0;
  for (double ms : step_ms) measured_ms += ms;
  std::string line = "{\"round\":" + std::to_string(index) +
                     ",\"traced\":" + (traced ? "true" : "false");
  line += ",\"setup_s\":" + num(setup_s);
  line += ",\"measured_s\":" + num(measured_ms / 1e3);
  line += ",\"step_ms\":" + num_list(step_ms);
  line += ",\"probe_nodes\":" + num(std::uint64_t{w.probe_nodes});
  line += ",\"probe_ms\":" + num_list(probes);
  // Deterministic counts: identical on every round of a seed.
  line += ",\"counts\":{";
  line += "\"steps\":" + num(tally.steps);
  line += ",\"events\":" + num(tally.events);
  line += ",\"batch_steps\":" + num(tally.batch_steps);
  line += ",\"type2_steps\":" + num(tally.type2_steps);
  line += ",\"heal_rounds\":" + num(tally.rounds);
  line += ",\"heal_messages\":" + num(tally.messages);
  line += ",\"topology_changes\":" + num(tally.topology);
  line += ",\"walk_epochs\":" + num(tally.walk_epochs);
  line += ",\"ops\":" + num(tally.ops);
  line += ",\"delivered_ops\":" + num(delivered);
  line += ",\"op_hops\":" + num(tally.op_hops);
  line += ",\"opt_hops\":" + num(tally.opt_hops);
  line += ",\"moved_keys\":" + num(tally.moved_keys);
  line += ",\"rehash_messages\":" + num(tally.rehash_messages);
  line += ",\"dropped\":" + num(tally.dropped);
  line += ",\"max_in_flight\":" + num(std::uint64_t{res.max_in_flight});
  line += ",\"final_n\":" + num(std::uint64_t{res.final_n});
  line += ",\"max_degree\":" + num(std::uint64_t{overlay->max_degree()});
  line += ",\"serve_completed\":" + num(std::uint64_t{res.serve_completed});
  line += ",\"serve_peak_queue\":" + num(std::uint64_t{res.serve_peak_queue});
  line += ",\"latency_p50_ticks\":" +
          num(res.serve_latency.empty() ? 0 : res.serve_latency.quantile(0.5));
  line += ",\"latency_p99_ticks\":" +
          num(res.serve_latency.empty() ? 0 : res.serve_latency.quantile(0.99));
  line += ",\"fixed_phase_attempted\":" + num(fixed_ops.attempted);
  line += ",\"fixed_phase_failed\":" + num(fixed_ops.failed());
  line += "}";
  line += ",\"attempted\":" + num(ops.attempted) +
          ",\"failed\":" + num(ops.failed());
  line += ",\"failed_by_kind\":{\"lookups\":" + num(ops.lookups) +
          ",\"writes\":" + num(ops.writes) + ",\"shed\":" + num(ops.shed) +
          ",\"timeouts\":" + num(ops.timeouts) + "}";
  line += ",\"checks\":[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    if (i) line += ',';
    line += json_str(checks.failures[i]);
  }
  line += "]";
  if (traced) {
    line += ",\"emit_ms\":" + num(emit_ms) + ",\"layers\":{";
    bool first = true;
    for (const auto& [name, l] :
         layer_sums(log.spans(), first_span,
                    static_cast<std::uint32_t>(w.warmup))) {
      if (!first) line += ',';
      first = false;
      line += json_str(name) + ":{\"calls\":" + num(l.calls) +
              ",\"total_us\":" + num(l.total_us) +
              ",\"self_us\":" + num(l.self_us) + "}";
    }
    line += "}";
  }
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return static_cast<double>(perfbench::now_ns() - t0) / 1e9;
}

void write_spans(const perfbench::SpanLog& log, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "id,name,start_ns,end_ns,parent,step\n");
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f, "%zu,%s,%lld,%lld,%d,%u\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.step);
  }
  std::fclose(f);
}

/// This process's resident-set high-water mark in KiB (VmHWM). Not
/// getrusage's ru_maxrss: Linux carries that across exec, so it would
/// report the launching process's peak when that was larger.
long max_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  long kb = -1;
  char buf[256];
  while (f && kb < 0 && std::fgets(buf, sizeof buf, f)) {
    if (std::strncmp(buf, "VmHWM:", 6) == 0) kb = std::strtol(buf + 6, nullptr, 10);
  }
  if (f) std::fclose(f);
  if (kb < 0) {
    std::fprintf(stderr, "perfbench: no VmHWM in /proc/self/status\n");
    std::exit(2);
  }
  return kb;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--spans FILE]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--spans") {
      opt.spans_path = val;
    } else {
      usage();
    }
  }
  if (argc % 2 == 0) usage();
  const auto workloads = make_workloads();
  const auto it =
      std::find_if(workloads.begin(), workloads.end(),
                   [&](const Workload& w) { return w.name == opt.workload; });
  if (it == workloads.end() || opt.seconds <= 0) usage();

  // Whole rounds until the budget is spent: at least three untraced rounds
  // (a median), or in trace mode alternating untraced/traced pairs, at
  // least one of each. A round never starts when it would likely run the
  // process past its deadline.
  constexpr double kDeadline = 150.0;
  const int min_rounds = opt.trace ? 2 : 3;
  perfbench::SpanLog log;
  // The probe's arrays stay resident for the whole run. The high-water mark
  // grows by exactly their size while it is built (nothing has been freed
  // yet, so the resident set is at its high-water mark), and that growth is
  // taken off the peak reported for the program.
  const long rss_before_probe_kb = max_rss_kb();
  SpeedProbe probe(it->probe_nodes);
  const long probe_kb = max_rss_kb() - rss_before_probe_kb;
  const std::int64_t start = perfbench::now_ns();
  double longest = 0.0;
  int rounds = 0;
  for (;;) {
    const bool traced = opt.trace && rounds % 2 == 1;
    longest = std::max(longest, run_round(*it, opt, rounds, traced, log, probe));
    ++rounds;
    const double elapsed = static_cast<double>(perfbench::now_ns() - start) / 1e9;
    if (rounds >= min_rounds && (elapsed >= opt.seconds ||
                                 elapsed + longest > kDeadline) &&
        (!opt.trace || rounds % 2 == 0)) {
      break;
    }
  }
  if (opt.trace && !opt.spans_path.empty()) write_spans(log, opt.spans_path);

  std::string line = "{\"done\":true,\"rounds\":" + std::to_string(rounds) +
                     ",\"peak_rss_mb\":" +
                     num(static_cast<double>(max_rss_kb() - probe_kb) / 1024.0) +
                     ",\"probe_rss_mb\":" +
                     num(static_cast<double>(probe_kb) / 1024.0) +
                     ",\"spans\":" + num(std::uint64_t{log.spans().size()}) +
                     "}";
  std::printf("%s\n", line.c_str());
  return 0;
}
