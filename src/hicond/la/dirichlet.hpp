// Dirichlet (boundary-value) Laplacian problems and harmonic extension.
//
// Given boundary vertices B with fixed potentials x_B, the harmonic
// extension solves L_UU x_U = -L_UB x_B for the interior U: the discrete
// Dirichlet problem. This is the computational core of random-walker /
// semi-supervised segmentation on image graphs -- the application domain
// (3D medical scans) of the paper's Section 3.2 experiments -- and of
// grounded circuit analysis. L_UU is symmetric positive definite whenever
// every component of the graph touches the boundary. The solve contracts
// the boundary into one vertex and runs the library's LaplacianSolver on
// the contracted graph.
#pragma once

#include <span>
#include <vector>

#include "hicond/graph/graph.hpp"

namespace hicond {

/// Solve the Dirichlet problem: returns the full potential vector x with
/// x[b] = boundary_values[i] for boundary_vertices[i] and harmonic values on
/// the interior. Every connected component must contain a boundary vertex
/// (numeric_error otherwise).
[[nodiscard]] std::vector<double> harmonic_extension(
    const Graph& g, std::span<const vidx> boundary_vertices,
    std::span<const double> boundary_values);

/// Random-walker probabilities: for seed class `c` with seed vertices
/// seeds[c], entry (v) of result[c] is the probability that a random walk
/// from v hits a seed of class c before any other seed. Each result column
/// is a harmonic extension with indicator boundary values, and all columns
/// are solved as one batch; they sum to 1 on every vertex.
[[nodiscard]] std::vector<std::vector<double>> random_walker_probabilities(
    const Graph& g, std::span<const std::vector<vidx>> seeds);

/// Hard segmentation from the probabilities: argmax class per vertex.
[[nodiscard]] std::vector<vidx> random_walker_segmentation(
    const Graph& g, std::span<const std::vector<vidx>> seeds);

}  // namespace hicond
