// Pluggable partitioner backends: one interface over the family of
// "partition into isolated, high-conductance clusters" algorithms.
//
// The paper's fixed-degree heaviest-edge clustering (Section 3.1) is one
// point in a large design space; ROADMAP item 3 puts alternates behind a
// single seam so every layer that consumes a Decomposition -- the laminar
// hierarchy, the Steiner preconditioner, the serve cache, the scoring
// harness -- can select an algorithm per request. A backend is a named,
// stateless strategy:
//
//   * name()         -- registry key, carried in requests and cache keys;
//   * options_key()  -- canonical, order-stable rendering of every option
//                       that affects the backend's output (and nothing
//                       else), embedded in HierarchyCache keys so two
//                       backends (or two seeds) never collide;
//   * decompose()    -- Graph -> Decomposition under the determinism
//                       policy: bitwise identical across thread counts at a
//                       fixed seed (docs/PARALLELISM.md);
//   * supports_repair() -- whether dynamic::repair_decomposition can
//                       locally re-cluster this backend's output.
//
// Built-in backends (docs/PARTITIONERS.md):
//   fixed_degree -- the paper's Section 3.1 three-pass construction;
//   louvain      -- multilevel modularity coarsening with a
//                   conductance-aware refinement pass (backends/louvain.hpp);
//   lowdiam      -- Miller-Peng-Xu exponential-random-shift low-diameter
//                   decomposition (backends/low_diameter.hpp).
//
// Every backend's output is validated at this boundary by
// checked_decompose(): structural validity plus connected clusters (the
// invariant the Theorem 2.1/3.5 certify oracle and quotient contraction
// both require). The property suite (tests/prop/test_prop_backends.cpp)
// additionally drives every registered backend through the full certify
// oracle with shrinking.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hicond/graph/graph.hpp"
#include "hicond/partition/decomposition.hpp"

namespace hicond::partition {

/// Union of every backend's knobs, with `backend` selecting the strategy.
/// Declaration order keeps the historical FixedDegreeOptions designated
/// initializers (`{.max_cluster_size = k, .seed = s}`) source-compatible.
/// Each backend's options_key() renders only the fields it consumes, so an
/// irrelevant knob never splits the hierarchy cache.
struct BackendOptions {
  vidx max_cluster_size = 4;   ///< cluster-size cap (fixed_degree, louvain)
  std::uint64_t seed = 1;      ///< perturbation / shift seed
  bool perturb = true;         ///< fixed_degree only: ablation switch
  std::string backend = "fixed_degree";  ///< registry name of the strategy
  double resolution = 1.0;     ///< louvain: modularity resolution gamma
  int rounds = 8;              ///< louvain: max coarsening rounds
  double beta = 0.4;           ///< lowdiam: exponential shift rate
};

class PartitionerBackend {
 public:
  virtual ~PartitionerBackend() = default;

  /// Registry name; stable, lowercase, part of wire requests + cache keys.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Canonical rendering of the options this backend consumes. Order-stable
  /// and injective on the consumed fields; prefixed with the backend name by
  /// backend_options_key() before entering a cache key.
  [[nodiscard]] virtual std::string options_key(
      const BackendOptions& options) const = 0;

  /// Partition g. Must be deterministic for fixed options at every thread
  /// count. Output contract: structurally valid, connected clusters
  /// (enforced by checked_decompose at the boundary).
  [[nodiscard]] virtual Decomposition decompose(
      const Graph& g, const BackendOptions& options) const = 0;

  /// True when dynamic::repair_decomposition can re-cluster a dirty region
  /// of this backend's output in place. Backends without local repair take
  /// the cold-rebuild fallback with decline reason "backend_unsupported".
  [[nodiscard]] virtual bool supports_repair() const noexcept {
    return false;
  }
};

/// Look up a registered backend; nullptr when `name` is unknown.
[[nodiscard]] const PartitionerBackend* find_backend(
    std::string_view name) noexcept;

/// Look up a registered backend; throws invalid_argument_error naming the
/// known backends when `name` is unknown.
[[nodiscard]] const PartitionerBackend& get_backend(std::string_view name);

/// All registered backends in deterministic (registration) order.
[[nodiscard]] std::vector<const PartitionerBackend*> registered_backends();

/// Register an additional backend (the three built-ins are always present).
/// Not thread-safe against concurrent lookups; call during startup.
void register_backend(std::unique_ptr<PartitionerBackend> backend);

/// "backend=<name>;" + the backend's own options_key rendering -- the
/// discriminator HierarchyCache embeds in its canonical options key.
/// Throws invalid_argument_error on an unknown options.backend.
[[nodiscard]] std::string backend_options_key(const BackendOptions& options);

/// Dispatch to options.backend with boundary validation: the decomposition
/// is structurally validated and every cluster is checked connected; a
/// violating backend output is rejected (invalid_argument_error), never
/// handed to the quotient/preconditioner layers.
[[nodiscard]] Decomposition checked_decompose(const Graph& g,
                                              const BackendOptions& options);

/// The boundary check on its own: throws invalid_argument_error if d is
/// structurally invalid on g or any cluster is internally disconnected.
void validate_backend_output(const Graph& g, const Decomposition& d,
                             std::string_view backend_name);

namespace detail {

/// Shared canonical-key renderers for options_key implementations:
/// "name=value;" fragments, integers via to_string and doubles via %.17g
/// (serve::solver_options_key renders its own fields with them too).
void append_key_int(std::string& out, const char* name, long long v);
void append_key_double(std::string& out, const char* name, double v);

}  // namespace detail

}  // namespace hicond::partition
