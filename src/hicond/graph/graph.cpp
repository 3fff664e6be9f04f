#include "hicond/graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "hicond/graph/builder.hpp"
#include "hicond/util/block.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

namespace {
/// Relative tolerance for comparing weights that were accumulated in
/// different summation orders (mirror arcs, cached volumes).
bool weights_close(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-10 * scale;
}
}  // namespace

Graph Graph::from_csr(vidx n, std::vector<eidx> offsets,
                      std::vector<vidx> targets, std::vector<double> weights) {
  HICOND_CHECK(n >= 0, "vertex count must be nonnegative");
  // Validate the adopted structure before deriving volumes from it; this is
  // the untrusted entry point, so the sweep runs at every validation level.
  Csr raw{std::move(offsets), std::move(targets), std::move(weights), {}, 0.0};
  validate_structure(n, raw);
  return adopt(n, std::move(raw.offsets), std::move(raw.targets),
               std::move(raw.weights));
}

Graph Graph::adopt(vidx n, std::vector<eidx> offsets,
                   std::vector<vidx> targets, std::vector<double> weights) {
  auto csr = std::make_shared<Csr>();
  csr->offsets = std::move(offsets);
  csr->targets = std::move(targets);
  csr->weights = std::move(weights);
  csr->vol.resize(static_cast<std::size_t>(n));
  parallel_for(static_cast<std::size_t>(n), [&](std::size_t v) {
    double s = 0.0;
    for (eidx a = csr->offsets[v]; a < csr->offsets[v + 1]; ++a) {
      s += csr->weights[static_cast<std::size_t>(a)];
    }
    csr->vol[v] = s;
  });
  csr->total_volume = std::accumulate(csr->vol.begin(), csr->vol.end(), 0.0);
  return Graph(n, std::move(csr));
}

Graph::Graph(vidx n, std::shared_ptr<const Csr> csr)
    : n_(n),
      csr_(std::move(csr)),
      offsets_(csr_->offsets.data()),
      targets_(csr_->targets.data()),
      weights_(csr_->weights.data()),
      vol_(csr_->vol.data()) {}

void Graph::validate_structure(vidx n, const Csr& csr) {
  const auto& offsets = csr.offsets;
  const auto& targets = csr.targets;
  const auto& weights = csr.weights;
  HICOND_CHECK(offsets.size() == static_cast<std::size_t>(n) + 1,
               "CSR offsets size must be num_vertices + 1");
  HICOND_CHECK(offsets.front() == 0, "CSR offsets must start at 0");
  // Each per-vertex sweep runs in parallel and throws the violation of the
  // lowest offending vertex -- what the serial scan in vertex order throws.
  parallel_check(static_cast<std::size_t>(n), [&](std::size_t v) {
    HICOND_CHECK(offsets[v] <= offsets[v + 1],
                 "CSR offsets must be nondecreasing (ragged offsets)");
  });
  HICOND_CHECK(offsets.back() == static_cast<eidx>(targets.size()),
               "CSR offsets must end at the arc count (ragged offsets)");
  HICOND_CHECK(targets.size() == weights.size(),
               "CSR targets and weights must have equal size");
  parallel_check(static_cast<std::size_t>(n), [&](std::size_t row) {
    const auto v = static_cast<vidx>(row);
    const auto lo = static_cast<std::size_t>(offsets[row]);
    const auto hi = static_cast<std::size_t>(offsets[row + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      const vidx u = targets[k];
      HICOND_CHECK(u >= 0 && u < n, "CSR target out of range");
      HICOND_CHECK(u != v, "self-loops are not allowed");
      HICOND_CHECK(k == lo || targets[k - 1] < u,
                   "CSR row targets must be strictly increasing "
                   "(unsorted or duplicate arcs)");
      HICOND_CHECK(std::isfinite(weights[k]) && weights[k] > 0.0,
                   "edge weights must be positive and finite");
      // Symmetry: the mirror arc (u, v) must exist with matching weight.
      const auto ulo =
          static_cast<std::size_t>(offsets[static_cast<std::size_t>(u)]);
      const auto uhi =
          static_cast<std::size_t>(offsets[static_cast<std::size_t>(u) + 1]);
      const auto begin = targets.begin() + static_cast<std::ptrdiff_t>(ulo);
      const auto end = targets.begin() + static_cast<std::ptrdiff_t>(uhi);
      const auto it = std::lower_bound(begin, end, v);
      HICOND_CHECK(it != end && *it == v,
                   "graph must be symmetric: mirror arc missing");
      const auto mirror = static_cast<std::size_t>(it - targets.begin());
      HICOND_CHECK(weights_close(weights[k], weights[mirror]),
                   "graph must be symmetric: mirror arc weight differs");
    }
  });
}

void Graph::validate() const {
  validate_structure(n_, *csr_);
  HICOND_CHECK(csr_->vol.size() == static_cast<std::size_t>(n_),
               "cached volume array size mismatch");
  parallel_check(static_cast<std::size_t>(n_), [&](std::size_t v) {
    double s = 0.0;
    for (eidx a = offsets_[v]; a < offsets_[v + 1]; ++a) {
      s += weights_[static_cast<std::size_t>(a)];
    }
    HICOND_CHECK(weights_close(s, vol_[v]),
                 "cached vertex volume inconsistent with weights");
  });
  double total = 0.0;
  for (const double v : csr_->vol) total += v;
  HICOND_CHECK(weights_close(total, csr_->total_volume),
               "cached total volume inconsistent with weights");
}

Graph::Graph(vidx n)
    : Graph(n, [n] {
        HICOND_CHECK(n >= 0, "vertex count must be nonnegative");
        auto csr = std::make_shared<Csr>();
        csr->offsets.assign(static_cast<std::size_t>(n) + 1, 0);
        csr->vol.assign(static_cast<std::size_t>(n), 0.0);
        return csr;
      }()) {}

Graph::Graph(vidx n, std::span<const WeightedEdge> edges) {
  GraphBuilder builder(n);
  for (const auto& e : edges) builder.add_edge(e.u, e.v, e.weight);
  *this = builder.build();
}

vidx Graph::max_degree() const noexcept {
  vidx best = 0;
  for (vidx v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

double Graph::edge_weight(vidx u, vidx v) const {
  const auto nbrs = neighbors(u);
  const auto ws = weights(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == v) return ws[i];
  }
  return 0.0;
}

bool Graph::has_edge(vidx u, vidx v) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  for (vidx w : neighbors(u)) {
    if (w == v) return true;
  }
  return false;
}

bool Graph::identical_to(const Graph& other) const noexcept {
  if (csr_ == other.csr_) return n_ == other.n_;
  const Csr& a = *csr_;
  const Csr& b = *other.csr_;
  if (n_ != other.n_ || a.offsets != b.offsets || a.targets != b.targets) {
    return false;
  }
  if (a.weights.size() != b.weights.size()) return false;
  for (std::size_t i = 0; i < a.weights.size(); ++i) {
    // Bitwise comparison: equal canonical graphs carry identical weight
    // bits (weights are positive finite, so IEEE == is bit equality here).
    if (a.weights[i] != b.weights[i]) return false;  // float-eq: exact
  }
  return true;
}

std::vector<WeightedEdge> Graph::edge_list() const {
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges()));
  for (vidx u = 0; u < n_; ++u) {
    const auto nbrs = neighbors(u);
    const auto ws = weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (u < nbrs[i]) edges.push_back({u, nbrs[i], ws[i]});
    }
  }
  return edges;
}

void Graph::laplacian_apply(std::span<const double> x,
                            std::span<double> y) const {
  laplacian_apply_block(x, y, 1);
}

namespace {

/// acc[j] = (A X)[v] for W columns, where x(u, j) reads entry u of column
/// j: the vol term first, then the arcs in CSR order. Every kernel below
/// accumulates through this one loop, so equal X values give equal acc bits
/// whether X is stored or read through a prolongation.
template <std::size_t W, typename X>
inline void accumulate_row(const eidx* offsets, const vidx* targets,
                           const double* weights, const double* vol,
                           std::size_t v, const X& x, double (&acc)[W]) {
  for (std::size_t j = 0; j < W; ++j) acc[j] = vol[v] * x(v, j);
  for (eidx a = offsets[v]; a < offsets[v + 1]; ++a) {
    const double w = weights[a];
    const auto t = static_cast<std::size_t>(targets[a]);
    for (std::size_t j = 0; j < W; ++j) acc[j] -= w * x(t, j);
  }
}

/// The two forms of the per-row kernel.
enum class Form {
  product,          ///< Y = A X
  scaled_residual,  ///< Y = R - A (S R), S R read entry by entry
};

/// The per-row kernel's inputs, vertex-major with row stride `stride` and
/// the pointers advanced to the chunk's first column: X for the product, R
/// and the per-vertex scale S for the scaled residual.
struct ColumnsArgs {
  const double* x;
  double* y;
  const double* r;
  const double* scale;
  std::size_t stride;
};

/// The W columns starting at args.y, row stride block_stride<S>: S = W
/// when the chunk is the whole row (k <= 8), S = 0 for a chunk of a wider
/// block. W and S are compile-time constants so the accumulators live in
/// registers and each neighbour's W values are one contiguous load.
template <Form F, std::size_t W, std::size_t S>
void laplacian_apply_columns(const eidx* offsets, const vidx* targets,
                             const double* weights, const double* vol,
                             std::size_t n, ColumnsArgs args) {
  parallel_for(n, [=](std::size_t v) {
    const std::size_t s = block_stride<S>(args.stride);
    double acc[W];
    if constexpr (F == Form::scaled_residual) {
      const auto x = [&](std::size_t u, std::size_t j) {
        return args.scale[u] * args.r[u * s + j];
      };
      accumulate_row(offsets, targets, weights, vol, v, x, acc);
      for (std::size_t j = 0; j < W; ++j) {
        args.y[v * s + j] = args.r[v * s + j] - acc[j];
      }
    } else {
      const auto x = [&](std::size_t u, std::size_t j) {
        return args.x[u * s + j];
      };
      accumulate_row(offsets, targets, weights, vol, v, x, acc);
      for (std::size_t j = 0; j < W; ++j) args.y[v * s + j] = acc[j];
    }
  });
}

/// The prolonged kernel's blocks, vertex-major with row stride `stride`:
/// the coarse block Xc read through `assignment` and the output Y, both
/// advanced to the chunk's first column, and the chunk's energy slots.
struct ProlongedArgs {
  const vidx* assignment;
  const double* xc;
  double* y;
  double* energy;
  std::size_t stride;
};

/// Y = A (P Xc) for W columns, plus each column's energy <P Xc, Y> as a
/// fixed-block sum over the rows (parallel_sums), so it does not depend on
/// the thread count.
template <std::size_t W, std::size_t S>
void laplacian_apply_prolonged_columns(const eidx* offsets,
                                       const vidx* targets,
                                       const double* weights,
                                       const double* vol, std::size_t n,
                                       ProlongedArgs args) {
  const std::size_t s = block_stride<S>(args.stride);
  const auto x = [&](std::size_t u, std::size_t j) {
    return args.xc[static_cast<std::size_t>(args.assignment[u]) * s + j];
  };
  parallel_sums(n, {args.energy, W},
                [&](std::size_t lo, std::size_t hi, double* partial) {
                  double energy[W] = {};
                  for (std::size_t v = lo; v < hi; ++v) {
                    double acc[W];
                    accumulate_row(offsets, targets, weights, vol, v, x, acc);
                    for (std::size_t j = 0; j < W; ++j) {
                      args.y[v * s + j] = acc[j];
                      energy[j] += x(v, j) * acc[j];
                    }
                  }
                  for (std::size_t j = 0; j < W; ++j) partial[j] += energy[j];
                });
}

/// Run the k columns through kernel.template operator()<W, S>(j0), which
/// applies the W columns starting at column j0 with row stride
/// block_stride<S>(k): one chunk that is the whole row when k <= 8
/// (W = S = k), else chunks of at most 8 columns over the runtime stride
/// (S = 0). Each chunk bounds the per-vertex accumulator array, and within
/// a chunk the arc metadata is loaded once and fans out to every column.
template <typename Kernel>
void in_chunks(int k, Kernel&& kernel) {
  with_block_width(k, [&]<std::size_t K>() {
    if constexpr (K != 0) {
      kernel.template operator()<K, K>(std::size_t{0});
    } else {
      for (int j0 = 0; j0 < k; j0 += kStaticBlockWidth) {
        with_block_width(std::min(kStaticBlockWidth, k - j0),
                         [&]<std::size_t W>() {
                           if constexpr (W != 0) {
                             kernel.template operator()<W, 0>(
                                 static_cast<std::size_t>(j0));
                           }
                         });
      }
    }
  });
}

/// The per-row kernel of form F over k columns.
template <Form F>
void apply_columns(const eidx* offsets, const vidx* targets,
                   const double* weights, const double* vol, std::size_t n,
                   int k, ColumnsArgs args) {
  args.stride = static_cast<std::size_t>(k);
  in_chunks(k, [&]<std::size_t W, std::size_t S>(std::size_t j0) {
    ColumnsArgs chunk = args;
    chunk.y += j0;
    if (chunk.x != nullptr) chunk.x += j0;
    if (chunk.r != nullptr) chunk.r += j0;
    laplacian_apply_columns<F, W, S>(offsets, targets, weights, vol, n, chunk);
  });
}

}  // namespace

void Graph::check_block(std::span<const double> x, std::span<const double> y,
                        int k) const {
  const auto n = static_cast<std::size_t>(n_);
  HICOND_CHECK(k >= 1, "block width must be positive");
  HICOND_CHECK(x.size() == n * static_cast<std::size_t>(k),
               "x block size mismatch");
  HICOND_CHECK(y.size() == n * static_cast<std::size_t>(k),
               "y block size mismatch");
}

void Graph::laplacian_apply_block(std::span<const double> x,
                                  std::span<double> y, int k) const {
  check_block(x, y, k);
  apply_columns<Form::product>(offsets_, targets_, weights_, vol_,
                               static_cast<std::size_t>(n_), k,
                               {x.data(), y.data(), nullptr, nullptr, 0});
}

void Graph::laplacian_scaled_residual_block(std::span<const double> scale,
                                            std::span<const double> r,
                                            std::span<double> y,
                                            int k) const {
  check_block(r, y, k);
  HICOND_CHECK(scale.size() == static_cast<std::size_t>(n_),
               "scale size mismatch");
  apply_columns<Form::scaled_residual>(
      offsets_, targets_, weights_, vol_, static_cast<std::size_t>(n_), k,
      {nullptr, y.data(), r.data(), scale.data(), 0});
}

void Graph::laplacian_apply_prolonged_block(std::span<const vidx> assignment,
                                            std::span<const double> xc,
                                            std::span<double> y,
                                            std::span<double> energy,
                                            int k) const {
  const auto n = static_cast<std::size_t>(n_);
  const auto uk = static_cast<std::size_t>(k);
  HICOND_CHECK(k >= 1, "block width must be positive");
  HICOND_CHECK(assignment.size() == n, "assignment size mismatch");
  HICOND_CHECK(xc.size() % uk == 0, "coarse block size not a multiple of k");
  HICOND_CHECK(y.size() == n * uk, "y block size mismatch");
  HICOND_CHECK(energy.size() == uk, "energy size mismatch");
  in_chunks(k, [&]<std::size_t W, std::size_t S>(std::size_t j0) {
    laplacian_apply_prolonged_columns<W, S>(
        offsets_, targets_, weights_, vol_, n,
        {assignment.data(), xc.data() + j0, y.data() + j0,
         energy.data() + j0, uk});
  });
}

double Graph::laplacian_quadratic(std::span<const double> x) const {
  HICOND_CHECK(x.size() == static_cast<std::size_t>(n_), "x size mismatch");
  return parallel_sum(static_cast<std::size_t>(n_), [&](std::size_t v) {
    double acc = 0.0;
    for (eidx a = offsets_[v]; a < offsets_[v + 1]; ++a) {
      const auto u = static_cast<std::size_t>(
          targets_[static_cast<std::size_t>(a)]);
      if (u > v) {
        const double d = x[v] - x[u];
        acc += weights_[static_cast<std::size_t>(a)] * d * d;
      }
    }
    return acc;
  });
}

Graph induced_subgraph(const Graph& g, std::span<const vidx> vertices,
                       std::vector<vidx>* old_to_new) {
  std::vector<vidx> map(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const vidx v = vertices[i];
    HICOND_CHECK(v >= 0 && v < g.num_vertices(), "vertex out of range");
    HICOND_CHECK(map[static_cast<std::size_t>(v)] == -1,
                 "duplicate vertex in induced_subgraph");
    map[static_cast<std::size_t>(v)] = static_cast<vidx>(i);
  }
  std::vector<WeightedEdge> edges;
  for (vidx v : vertices) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vidx nu = map[static_cast<std::size_t>(nbrs[i])];
      const vidx nv = map[static_cast<std::size_t>(v)];
      if (nu != -1 && nv < nu) edges.push_back({nv, nu, ws[i]});
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return Graph(static_cast<vidx>(vertices.size()), edges);
}

}  // namespace hicond
