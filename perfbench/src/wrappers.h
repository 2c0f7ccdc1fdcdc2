#pragma once

/// \file wrappers.h
/// Span-recording wrappers around the program's two virtual interfaces, so
/// the traced run drives the program's real loops (both engines) unchanged:
///
///  * TracedStrategy times Strategy::next / next_batch ("adversary.decide");
///  * TracedOverlay times HealingOverlay::apply ("dex.apply", whose self
///    time is healing once the "dex.precondition" child is taken out) and
///    HealingOverlay::route ("sim.route"), and forwards everything else to
///    the wrapped overlay. The runner lends its live-view provider to the
///    overlay it is given — this wrapper — so the wrapper passes it on to
///    the inner overlay, whose batch precondition reads it.

#include <memory>
#include <utility>
#include <vector>

#include "adversary/adversary.h"
#include "sim/overlay.h"
#include "spans.h"

namespace perfbench {

class TracedStrategy final : public dex::adversary::Strategy {
 public:
  explicit TracedStrategy(dex::adversary::Strategy& inner) : inner_(inner) {}

  dex::adversary::ChurnAction next(const dex::adversary::AdversaryView& view,
                                   dex::support::Rng& rng, std::size_t min_n,
                                   std::size_t max_n) override {
    ScopedSpan span("adversary.decide");
    return inner_.next(view, rng, min_n, max_n);
  }
  dex::sim::ChurnBatch next_batch(const dex::adversary::AdversaryView& view,
                                  dex::support::Rng& rng, std::size_t min_n,
                                  std::size_t max_n,
                                  std::size_t batch_size) override {
    ScopedSpan span("adversary.decide");
    return inner_.next_batch(view, rng, min_n, max_n, batch_size);
  }

 private:
  dex::adversary::Strategy& inner_;
};

class TracedOverlay final : public dex::sim::HealingOverlay {
 public:
  using NodeId = dex::sim::NodeId;

  explicit TracedOverlay(dex::sim::HealingOverlay& inner) : inner_(inner) {
    inner_.set_live_view_provider([this] { return live_view(); });
  }
  ~TracedOverlay() override { inner_.set_live_view_provider({}); }
  TracedOverlay(const TracedOverlay&) = delete;
  TracedOverlay& operator=(const TracedOverlay&) = delete;

  [[nodiscard]] const char* name() const override { return inner_.name(); }
  dex::sim::BatchOutcome apply(const dex::sim::ChurnBatch& batch) override {
    ScopedSpan span("dex.apply");
    return inner_.apply(batch);
  }
  NodeId insert(NodeId attach_to) override {
    ScopedSpan span("dex.apply");
    return inner_.insert(attach_to);
  }
  void remove(NodeId victim) override {
    ScopedSpan span("dex.apply");
    inner_.remove(victim);
  }
  [[nodiscard]] std::size_t min_population() const override {
    return inner_.min_population();
  }
  [[nodiscard]] std::size_t n() const override { return inner_.n(); }
  [[nodiscard]] bool alive(NodeId u) const override { return inner_.alive(u); }
  [[nodiscard]] std::vector<NodeId> alive_nodes() const override {
    return inner_.alive_nodes();
  }
  [[nodiscard]] std::vector<bool> alive_mask() const override {
    return inner_.alive_mask();
  }
  [[nodiscard]] dex::graph::Multigraph snapshot() const override {
    return inner_.snapshot();
  }
  [[nodiscard]] std::size_t load(NodeId u) const override {
    return inner_.load(u);
  }
  [[nodiscard]] std::size_t max_degree() const override {
    return inner_.max_degree();
  }
  [[nodiscard]] NodeId special_node() const override {
    return inner_.special_node();
  }
  [[nodiscard]] std::vector<NodeId> route(
      NodeId src, NodeId dst,
      const dex::graph::CsrView& live) const override {
    ScopedSpan span("sim.route");
    return inner_.route(src, dst, live);
  }
  [[nodiscard]] bool route_is_shortest() const override {
    return inner_.route_is_shortest();
  }
  [[nodiscard]] const dex::sim::CostMeter& meter() const override {
    return inner_.meter();
  }
  [[nodiscard]] dex::sim::StepCost last_step_cost() const override {
    return inner_.last_step_cost();
  }
  [[nodiscard]] bool live_ports(NodeId u,
                                std::vector<NodeId>& out) const override {
    return inner_.live_ports(u, out);
  }
  [[nodiscard]] bool drain_view_delta(
      dex::graph::ViewDelta& out) const override {
    return inner_.drain_view_delta(out);
  }
  void set_intra_jobs(unsigned jobs) override { inner_.set_intra_jobs(jobs); }
  [[nodiscard]] bool has_removal_oracle() const override {
    return inner_.has_removal_oracle();
  }
  [[nodiscard]] dex::graph::Multigraph snapshot_without(
      NodeId victim) const override {
    return inner_.snapshot_without(victim);
  }
  void check_invariants() const override { inner_.check_invariants(); }

 private:
  dex::sim::HealingOverlay& inner_;
};

}  // namespace perfbench
