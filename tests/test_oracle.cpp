// The route/placement oracle layer (graph/csr.h + graph/bidir.h +
// sim/oracle.h): the flat CSR live view must agree with the Multigraph +
// mask it was built from; csr_shortest_path must be vertex-identical to a
// forward-BFS reference kept here; and every DistanceOracle answer must
// equal a full single-source BFS on churned views across all six backends,
// dead endpoints and disconnected components included. Plus the oracle's
// one-slot from()/reach() reuse and the sweep byte-determinism contract
// with the oracle on the hot path.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "graph/bfs.h"
#include "graph/conductance.h"
#include "graph/csr.h"
#include "sim/experiment.h"
#include "sim/oracle.h"
#include "sim/overlay.h"
#include "sim/scenario.h"
#include "sim/sinks.h"

using namespace dex;
using graph::NodeId;

namespace {

/// The slow reference: a full forward BFS from src, scanning the queue in
/// order and each row in order, first discoverer as parent (what
/// csr_shortest_path computed before it searched bidirectionally; stopping
/// at dst leaves dst's parent chain unchanged, so one tree serves every
/// target).
std::vector<NodeId> forward_parents(const graph::CsrView& g, NodeId src) {
  std::vector<NodeId> parent(g.node_count(), graph::kInvalidNode);
  if (!g.alive(src)) return parent;
  std::vector<NodeId> queue{src};
  parent[src] = src;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId v : g.neighbors(queue[head])) {
      if (parent[v] != graph::kInvalidNode) continue;
      parent[v] = queue[head];
      queue.push_back(v);
    }
  }
  return parent;
}

/// The reference route src -> dst: {src} when equal, empty when dst is
/// unreached (dead endpoints included).
std::vector<NodeId> reference_path(const std::vector<NodeId>& parent,
                                   NodeId src, NodeId dst) {
  if (src == dst) return {src};
  if (parent[dst] == graph::kInvalidNode) return {};
  std::vector<NodeId> path{dst};
  while (path.back() != src) path.push_back(parent[path.back()]);
  return {path.rbegin(), path.rend()};
}

/// Every (src, dst) over all ids of `live`, dead ones included (or only
/// the given sources): the bidirectional route equals the reference and
/// the oracle's distance equals csr_bfs_fill.
void expect_matches_references(const graph::CsrView& live,
                               const std::string& what,
                               std::vector<NodeId> sources = {}) {
  sim::DistanceOracle oracle;
  oracle.attach(live);
  graph::BidirSearch scratch;
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
  const auto n = static_cast<NodeId>(live.node_count());
  if (sources.empty()) {
    for (NodeId u = 0; u < n; ++u) sources.push_back(u);
  }
  for (const NodeId src : sources) {
    const auto parent = forward_parents(live, src);
    graph::csr_bfs_fill(live, src, dist, queue);
    for (NodeId dst = 0; dst < n; ++dst) {
      ASSERT_EQ(graph::csr_shortest_path(live, src, dst, scratch),
                reference_path(parent, src, dst))
          << what << ": " << src << " -> " << dst;
      ASSERT_EQ(oracle.distance(src, dst), dist[dst])
          << what << ": " << src << " -> " << dst;
    }
  }
}

}  // namespace

// ----------------------------------------------------------------- CsrView

TEST(CsrView, MirrorsTheLiveAdjacencyAndDropsTheDead) {
  sim::LawSiuOverlay overlay(20, /*d=*/3, /*seed=*/4);
  overlay.remove(overlay.alive_nodes()[3]);
  overlay.remove(overlay.alive_nodes()[7]);
  const auto g = overlay.snapshot();
  const auto mask = overlay.alive_mask();
  graph::CsrView live;
  live.build(g, mask);
  EXPECT_EQ(live.node_count(), g.node_count());
  EXPECT_EQ(live.alive_count(), overlay.n());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_EQ(live.alive(u), static_cast<bool>(mask[u]));
    std::vector<NodeId> expect;
    if (mask[u]) {
      for (const NodeId v : g.ports(u)) {
        if (mask[v]) expect.push_back(v);  // port order preserved
      }
    }
    const auto got = live.neighbors(u);
    ASSERT_EQ(got.size(), expect.size()) << "node " << u;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expect.begin()));
  }
}

TEST(CsrView, BfsAndShortestPathMatchTheMultigraphReference) {
  sim::RandomFlipOverlay overlay(24, /*d=*/6, /*seed=*/9);
  overlay.remove(overlay.alive_nodes()[5]);
  const auto g = overlay.snapshot();
  const auto mask = overlay.alive_mask();
  graph::CsrView live;
  live.build(g, mask);
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> scratch;
  graph::BidirSearch search;
  for (const NodeId src : overlay.alive_nodes()) {
    graph::csr_bfs_fill(live, src, dist, scratch);
    const auto ref = graph::bfs_distances(g, src, mask);
    for (const NodeId u : overlay.alive_nodes()) {
      EXPECT_EQ(dist[u], ref[u]) << src << " -> " << u;
      const auto path = graph::csr_shortest_path(live, src, u, search);
      if (ref[u] == graph::kUnreached) {
        EXPECT_TRUE(path.empty());
      } else {
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.size() - 1, ref[u]);
      }
    }
  }
}

// ---------------------------------------------------------- DistanceOracle

TEST(DistanceOracle, MatchesBfsOnChurnedViewsAcrossAllSixBackends) {
  for (const auto& backend : sim::known_overlays()) {
    auto overlay = sim::make_overlay(backend, 40, /*seed=*/1234);
    ASSERT_NE(overlay, nullptr) << backend;
    auto strategy = sim::make_strategy("churn");
    support::Rng rng(77);
    sim::CachedView cache(*overlay);
    sim::DistanceOracle oracle;
    for (int step = 0; step < 50; ++step) {
      const auto action = strategy->next(cache.view(), rng, 20, 80);
      if (action.insert) {
        overlay->insert(action.target);
      } else {
        overlay->remove(action.target);
      }
      cache.invalidate();
      if (step % 5 != 0) continue;
      const auto& live = cache.view().live_csr();
      oracle.attach(live);
      const auto g = cache.view().snapshot();
      const auto mask = cache.view().alive_mask();
      const auto nodes = cache.view().alive_nodes();
      // Random pairs, with a repeating home mixed in.
      for (int q = 0; q < 150; ++q) {
        const NodeId u = nodes[rng.below(nodes.size())];
        const NodeId v = q % 3 == 0 ? nodes[q % nodes.size()]
                                    : nodes[rng.below(nodes.size())];
        const auto ref = graph::bfs_distances(g, u, mask);
        EXPECT_EQ(oracle.distance(u, v), ref[v])
            << backend << " step " << step << ": " << u << " -> " << v;
      }
    }
  }
}

TEST(CsrShortestPath, VertexIdenticalToForwardBfsOnAllSixChurnedBackends) {
  for (const auto& backend : sim::known_overlays()) {
    auto overlay = sim::make_overlay(backend, 48, /*seed=*/31);
    ASSERT_NE(overlay, nullptr) << backend;
    auto strategy = sim::make_strategy("churn");
    support::Rng rng(5);
    sim::CachedView cache(*overlay);
    for (int step = 0; step < 40; ++step) {
      const auto action = strategy->next(cache.view(), rng, 24, 96);
      if (action.insert) {
        overlay->insert(action.target);
      } else {
        overlay->remove(action.target);
      }
      cache.invalidate();
      if (step % 10 == 9) {
        expect_matches_references(cache.view().live_csr(),
                                  backend + " step " + std::to_string(step));
      }
    }
  }
}

// Depths are kept in a byte (mod 255): paths hundreds of hops long, with
// tied shortest paths around an even cycle and a parallel edge, must keep
// the exact distance and the forward-BFS tie-break.
TEST(CsrShortestPath, LongPathsKeepTheTieBreakPastTheDepthByte) {
  const NodeId n = 700;
  graph::Multigraph g(n);
  for (NodeId u = 0; u + 1 < 600; ++u) g.add_edge(u, u + 1);
  g.add_edge(599, 0);  // an even cycle: antipodes tie both ways round
  for (NodeId u = 599; u + 1 < n; ++u) g.add_edge(u, u + 1);  // a tail
  g.add_edge(10, 11);  // a parallel edge
  graph::CsrView live;
  live.build(g, {});
  expect_matches_references(live, "cycle with tail",
                            {0, 10, 11, 150, 299, 300, 599, 650, 699});
}

// Disconnected views: the spectral-batch adversary's sweep cut, with its
// whole outer boundary deleted at once — the batch it would send without
// the §5-safe thinning — and left unhealed, so the cut side is cut off.
// Dead endpoints come from the boundary and from earlier churn.
TEST(DistanceOracle, MatchesCsrBfsAcrossDeadEndpointsAndDisconnectedViews) {
  for (const auto& backend : sim::known_overlays()) {
    auto overlay = sim::make_overlay(backend, 64, /*seed=*/8);
    ASSERT_NE(overlay, nullptr) << backend;
    auto strategy = sim::make_strategy("spectral-batch");
    support::Rng rng(21);
    sim::CachedView cache(*overlay);
    for (int step = 0; step < 6; ++step) {
      (void)overlay->apply(strategy->next_batch(cache.view(), rng, 32, 96, 4));
      cache.invalidate();
    }
    const auto g = cache.view().snapshot();
    auto mask = cache.view().alive_mask();
    const auto cut = graph::sweep_cut(g, mask);
    ASSERT_FALSE(cut.side.empty()) << backend;
    std::vector<bool> in_side(g.node_count(), false);
    for (const NodeId u : cut.side) in_side[u] = true;
    std::vector<NodeId> victims;
    for (const NodeId u : cut.side) {
      for (const NodeId w : g.ports(u)) {
        if (mask[w] && !in_side[w]) victims.push_back(w);
      }
    }
    for (const NodeId v : victims) mask[v] = false;
    graph::CsrView live;
    live.build(g, mask);
    std::vector<std::uint32_t> dist;
    std::vector<NodeId> queue;
    graph::csr_bfs_fill(live, cut.side.front(), dist, queue);
    const auto reached = static_cast<std::size_t>(std::count_if(
        dist.begin(), dist.end(),
        [](std::uint32_t d) { return d != graph::kUnreached; }));
    ASSERT_LT(reached, live.alive_count()) << backend << ": still connected";
    expect_matches_references(live, backend + " disconnected");
  }
}

// The one full-vector slot: from() fills it, reach() on the same root
// reuses it, another root refills it, and neither distance() nor anything
// but attach() disturbs it.
TEST(DistanceOracle, FromThenReachReusesTheSingleSlot) {
  sim::FloodRebuildOverlay overlay(32);
  sim::CachedView cache(overlay);
  const auto& live = cache.view().live_csr();
  sim::DistanceOracle oracle;
  oracle.attach(live);
  const auto nodes = overlay.alive_nodes();
  const NodeId home = nodes[0];
  const NodeId other = nodes[1];
  std::vector<std::uint32_t> want;
  std::vector<NodeId> queue;
  graph::csr_bfs_fill(live, home, want, queue);

  EXPECT_EQ(oracle.from(home), want);
  EXPECT_EQ(oracle.bfs_runs(), 1u);
  const auto reach = oracle.reach(home);
  EXPECT_EQ(reach.count, nodes.size());
  EXPECT_EQ(oracle.bfs_runs(), 1u);  // served from the slot

  (void)oracle.distance(other, home);  // one search, slot untouched
  EXPECT_EQ(oracle.bfs_runs(), 2u);
  (void)oracle.from(home);
  EXPECT_EQ(oracle.bfs_runs(), 2u);

  (void)oracle.reach(other);  // a new root refills the slot ...
  EXPECT_EQ(oracle.bfs_runs(), 3u);
  EXPECT_EQ(oracle.from(other)[other], 0u);
  EXPECT_EQ(oracle.bfs_runs(), 3u);
  EXPECT_EQ(oracle.reach(home).sum, reach.sum);  // ... so home refills too
  EXPECT_EQ(oracle.bfs_runs(), 4u);

  oracle.attach(live);  // a new step drops the slot
  EXPECT_EQ(oracle.from(home), want);
  EXPECT_EQ(oracle.bfs_runs(), 1u);
}

// ------------------------------------------------------- sweep determinism

TEST(OracleDeterminism, AllSixBackendsSweepBytesAreIdenticalAcrossJobs) {
  sim::ExperimentPlan plan;
  plan.backends = sim::known_overlays();
  plan.scenarios = {"churn"};
  plan.populations = {32};
  plan.batch_sizes = {3};
  plan.seeds = {6};
  plan.base.steps = 25;
  plan.base.traffic.workload = "zipf";
  plan.base.traffic.ops_per_step = 32;

  const auto run_sweep = [&plan](std::size_t jobs) {
    std::ostringstream csv, json;
    sim::CsvTraceSink csv_sink(csv);
    sim::JsonSummarySink json_sink(json);
    sim::ExecutorOptions opts;
    opts.jobs = jobs;
    sim::Executor executor(opts);
    executor.add_sink(csv_sink);
    executor.add_sink(json_sink);
    executor.run(plan.expand());
    return csv.str() + "\n---\n" + json.str();
  };
  const auto serial = run_sweep(1);
  EXPECT_EQ(serial, run_sweep(8));
  EXPECT_NE(serial.find("failed_writes"), std::string::npos);
}
