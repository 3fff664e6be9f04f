// Weighted undirected graph in compressed sparse row (CSR) form.
//
// This is the central substrate of the library: the paper's decompositions,
// Steiner preconditioners and spectral results are all stated over weighted
// graphs G = (V, E, w) and their Laplacians A_G. Both directions of every
// undirected edge are stored, so iteration over the incident edges of a
// vertex is a contiguous scan.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "hicond/util/common.hpp"

namespace hicond {

/// One endpoint-annotated half-edge as seen from a vertex's adjacency list.
struct HalfEdge {
  vidx to;
  double weight;
};

/// An undirected weighted edge (u < v is NOT required).
struct WeightedEdge {
  vidx u;
  vidx v;
  double weight;

  friend bool operator==(const WeightedEdge&, const WeightedEdge&) = default;
};

/// Immutable weighted undirected graph. Self-loops are disallowed; parallel
/// edges are merged (weights summed) at construction time.
///
/// The CSR arrays and cached volumes live in one reference-counted block that
/// is built once (by the constructors, GraphBuilder or from_csr) and never
/// written again, so copying a Graph is O(1): copies share the block, each
/// copy keeps it alive, and any number of threads may read copies at once.
class Graph {
 public:
  /// Empty graph with `n` isolated vertices.
  explicit Graph(vidx n = 0);

  /// O(1): the copy shares the source's storage block. There are no move
  /// operations, so a moved-from Graph is a copy and stays valid.
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;

  /// Build from an edge list. Parallel edges are merged, weights must be
  /// positive, endpoints must be in [0, n) and distinct.
  Graph(vidx n, std::span<const WeightedEdge> edges);

  /// Adopt an externally assembled symmetric CSR structure (both directions
  /// of every edge present, rows sorted). The input is always validated --
  /// this is the untrusted zero-copy entry point for interop -- and rejected
  /// with invalid_argument_error naming the violated invariant.
  [[nodiscard]] static Graph from_csr(vidx n, std::vector<eidx> offsets,
                                      std::vector<vidx> targets,
                                      std::vector<double> weights);

  /// Full structural validation (O(n + m log deg)): consistent sorted
  /// offsets, in-range targets, no self-loops, strictly positive finite
  /// weights, symmetric arcs with matching weights, consistent cached
  /// volumes. Throws invalid_argument_error naming the violated invariant.
  void validate() const;

  [[nodiscard]] vidx num_vertices() const noexcept { return n_; }

  /// Number of undirected edges.
  [[nodiscard]] eidx num_edges() const noexcept {
    return static_cast<eidx>(csr_->targets.size()) / 2;
  }

  /// Number of stored directed arcs (2 * num_edges()).
  [[nodiscard]] eidx num_arcs() const noexcept {
    return static_cast<eidx>(csr_->targets.size());
  }

  [[nodiscard]] vidx degree(vidx v) const {
    return static_cast<vidx>(offsets_[static_cast<std::size_t>(v) + 1] -
                             offsets_[static_cast<std::size_t>(v)]);
  }

  /// Maximum vertex degree (0 for an empty graph).
  [[nodiscard]] vidx max_degree() const noexcept;

  /// Total weight incident to v: vol(v) = sum of w(u, v) over neighbours u.
  [[nodiscard]] double vol(vidx v) const {
    return vol_[static_cast<std::size_t>(v)];
  }

  /// Sum of vol(v) over all vertices (= 2 * total edge weight).
  [[nodiscard]] double total_volume() const noexcept {
    return csr_->total_volume;
  }

  /// Neighbour targets of v, aligned with weights(v).
  [[nodiscard]] std::span<const vidx> neighbors(vidx v) const {
    return {targets_ + arc_begin(v),
            static_cast<std::size_t>(degree(v))};
  }

  /// Edge weights incident to v, aligned with neighbors(v).
  [[nodiscard]] std::span<const double> weights(vidx v) const {
    return {weights_ + arc_begin(v),
            static_cast<std::size_t>(degree(v))};
  }

  /// CSR offset of v's adjacency block; arc indices are in
  /// [arc_begin(v), arc_begin(v+1)).
  [[nodiscard]] eidx arc_begin(vidx v) const {
    return offsets_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] vidx arc_target(eidx arc) const {
    return targets_[static_cast<std::size_t>(arc)];
  }

  [[nodiscard]] double arc_weight(eidx arc) const {
    return weights_[static_cast<std::size_t>(arc)];
  }

  /// Weight of edge (u, v); 0 when absent. O(deg(u)).
  [[nodiscard]] double edge_weight(vidx u, vidx v) const;

  /// True when edge (u, v) is present. O(min deg).
  [[nodiscard]] bool has_edge(vidx u, vidx v) const;

  /// All undirected edges with u < v, in CSR order.
  [[nodiscard]] std::vector<WeightedEdge> edge_list() const;

  /// True when the CSR arrays of the two graphs are bitwise identical
  /// (same vertex count, offsets, targets, weights). Because construction
  /// canonicalizes rows, this is content equality for graphs built through
  /// any public constructor -- it is the in-memory analogue of comparing
  /// snapshot fingerprints, and what the dynamic-repair path uses to decide
  /// whether a quotient actually changed. O(n + m), or O(1) when the two
  /// share storage (one is a copy of the other).
  [[nodiscard]] bool identical_to(const Graph& other) const noexcept;

  /// y = A_G x where A_G is the graph Laplacian: laplacian_apply_block
  /// with k = 1.
  void laplacian_apply(std::span<const double> x, std::span<double> y) const;

  /// Y = A_G X for k vectors stored vertex-major (entry (v, j) at v*k + j;
  /// util/block.hpp); parallel over vertices. One CSR pass serves up to
  /// eight columns, so the row metadata (offsets, targets, weights) is read
  /// once per chunk instead of once per column, and each neighbour's
  /// entries are one contiguous run. Each column accumulates in the same
  /// order whatever k is, so column j of Y does not depend on the other
  /// columns or on the block width.
  ///
  /// The two methods below are the same CSR pass, each fused with more
  /// work; their results are bitwise equal to the unfused steps they
  /// describe. All three use the same layout, and in all three Y must not
  /// overlap the inputs.
  void laplacian_apply_block(std::span<const double> x, std::span<double> y,
                             int k) const;

  /// Y = R - A_G (S R) with S = diag(scale), one entry per vertex serving
  /// every column: the residual of the block system A_G X = R at the
  /// iterate X = S R (a damped-Jacobi sweep from X = 0 when scale is
  /// omega D^-1). X is read entry by entry as scale[v] * R[v] and never
  /// stored.
  void laplacian_scaled_residual_block(std::span<const double> scale,
                                       std::span<const double> r,
                                       std::span<double> y, int k) const;

  /// Y = A_G E for the prolonged block E = P Xc, E[v] = Xc[assignment[v]]
  /// in every column, where Xc has one row per cluster (xc.size() / k rows,
  /// vertex-major like Y) and every assignment entry indexes one. E is read
  /// through the assignment and never stored. Also writes energy[j] =
  /// <E_j, Y_j> = E_j' A_G E_j, a fixed-block sum over the rows
  /// (parallel_sums): bitwise la::dot of the stored E_j and Y_j at every
  /// thread count.
  void laplacian_apply_prolonged_block(std::span<const vidx> assignment,
                                       std::span<const double> xc,
                                       std::span<double> y,
                                       std::span<double> energy, int k) const;

  /// Quadratic form x' A_G x = sum over edges of w(u,v) (x_u - x_v)^2.
  [[nodiscard]] double laplacian_quadratic(std::span<const double> x) const;

 private:
  friend class GraphBuilder;

  /// The shared storage block.
  struct Csr {
    std::vector<eidx> offsets;    // size n + 1
    std::vector<vidx> targets;    // size 2m
    std::vector<double> weights;  // size 2m
    std::vector<double> vol;      // size n
    double total_volume = 0.0;
  };

  /// Derive the volumes of assembled CSR arrays and take ownership of them;
  /// the caller vouches for the structure (from_csr validates it first).
  [[nodiscard]] static Graph adopt(vidx n, std::vector<eidx> offsets,
                                   std::vector<vidx> targets,
                                   std::vector<double> weights);
  /// Structural invariants of raw CSR arrays; what from_csr and validate()
  /// check before anything reads a row.
  static void validate_structure(vidx n, const Csr& csr);
  /// Shape checks shared by the block SpMV forms.
  void check_block(std::span<const double> x, std::span<const double> y,
                   int k) const;

  /// Share `csr` and point the array views into it.
  Graph(vidx n, std::shared_ptr<const Csr> csr);

  vidx n_ = 0;
  std::shared_ptr<const Csr> csr_;
  // Views of csr_'s arrays: the accessors read a row with the same single
  // load from `this` as when a Graph held its arrays itself.
  const eidx* offsets_ = nullptr;
  const vidx* targets_ = nullptr;
  const double* weights_ = nullptr;
  const double* vol_ = nullptr;
};

/// Induced subgraph on `vertices`; returns the graph and writes the mapping
/// old-id -> new-id into `old_to_new` (-1 for vertices outside the set).
[[nodiscard]] Graph induced_subgraph(const Graph& g,
                                     std::span<const vidx> vertices,
                                     std::vector<vidx>* old_to_new = nullptr);

}  // namespace hicond
