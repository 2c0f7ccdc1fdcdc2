#include "dex/pcycle.h"

namespace dex {

PCycle::PCycle(std::uint64_t p) : p_(p) {
  DEX_ASSERT_MSG(support::is_prime(p), "p-cycle size must be prime");
  DEX_ASSERT_MSG(p >= 5, "p-cycle needs p >= 5");
  DEX_ASSERT_MSG(p < (std::uint64_t{1} << 32),
                 "inverse table stores u32 vertices");
}

void PCycle::build_inv_table() const {
  // Linear-time inverse table: inv[1] = 1 and, for 1 < i < p,
  // inv[i] = -(p / i) * inv[p mod i] mod p — each entry reads an already
  // computed one because p mod i < i.
  inv_table_.resize(p_);
  inv_table_[0] = 0;  // the self-loop convention of Definition 1
  if (p_ > 1) inv_table_[1] = 1;
  for (std::uint64_t i = 2; i < p_; ++i) {
    const std::uint64_t q = p_ / i;
    const std::uint64_t r = p_ % i;
    inv_table_[i] =
        static_cast<std::uint32_t>(p_ - (q * inv_table_[r]) % p_);
  }
}

std::uint32_t PCycle::distance(Vertex x, Vertex y) const {
  return search_.distance(p_, static_cast<std::uint32_t>(x),
                          static_cast<std::uint32_t>(y),
                          [this](std::uint32_t v) { return ports(v); });
}

std::vector<Vertex> PCycle::shortest_path(Vertex x, Vertex y) const {
  std::vector<Vertex> path;
  search_.path(p_, static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y),
               [this](std::uint32_t v) { return ports(v); }, path);
  DEX_ASSERT_MSG(!path.empty(),
                 "shortest_path: target unreachable on the p-cycle");
  return path;
}

void PCycle::ensure_zero_tree() const {
  if (!zero_dist_.empty()) return;
  zero_dist_.assign(p_, ~std::uint32_t{0});
  zero_parent_.assign(p_, 0);
  std::vector<Vertex> frontier{0};
  zero_dist_[0] = 0;
  std::uint32_t depth = 0;
  while (!frontier.empty()) {
    ++depth;
    std::vector<Vertex> next;
    for (Vertex v : frontier) {
      for (Vertex w : ports(v)) {
        if (zero_dist_[w] != ~std::uint32_t{0}) continue;
        zero_dist_[w] = depth;
        zero_parent_[w] = v;
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
}

std::uint32_t PCycle::distance_to_zero(Vertex x) const {
  ensure_zero_tree();
  return zero_dist_[x];
}

std::vector<Vertex> PCycle::path_to_zero(Vertex x) const {
  ensure_zero_tree();
  std::vector<Vertex> path{x};
  Vertex cur = x;
  while (cur != 0) {
    cur = zero_parent_[cur];
    path.push_back(cur);
  }
  return path;
}

}  // namespace dex
