#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "hicond/obs/json.hpp"

namespace bench {

using hicond::vidx;
using hicond::dynamic::EdgeUpdate;
using hicond::dynamic::UpdateKind;
using hicond::obs::JsonWriter;

namespace {

void write_vector(JsonWriter& w, std::span<const double> v) {
  w.begin_array();
  for (const double x : v) w.value(x);
  w.end_array();
}

}  // namespace

std::string load_body(const std::string& path) {
  JsonWriter w;
  w.begin_object().kv("op", "load").kv("path", path).end_object();
  return w.str();
}

std::string seeded_solve_body(const std::string& fp, std::uint64_t rhs_seed) {
  JsonWriter w;
  w.begin_object().kv("op", "solve").kv("graph", fp);
  w.kv("rhs_seed", static_cast<std::int64_t>(rhs_seed % (1ULL << 52)));
  w.end_object();
  return w.str();
}

std::string seeded_batch_body(const std::string& fp, int k,
                              std::uint64_t rhs_seed) {
  JsonWriter w;
  w.begin_object().kv("op", "batch_solve").kv("graph", fp);
  w.key("rhs_random").begin_object();
  w.kv("count", k).kv("seed", static_cast<std::int64_t>(rhs_seed % (1ULL << 52)));
  w.end_object();
  w.end_object();
  return w.str();
}

std::string vector_solve_body(const std::string& fp,
                              std::span<const double> b) {
  JsonWriter w;
  w.begin_object().kv("op", "solve").kv("graph", fp);
  w.key("b");
  write_vector(w, b);
  w.kv("return_x", true);
  w.end_object();
  return w.str();
}

std::string vector_batch_body(
    const std::string& fp, const std::vector<const std::vector<double>*>& rhs) {
  JsonWriter w;
  w.begin_object().kv("op", "batch_solve").kv("graph", fp);
  w.key("rhs").begin_array();
  for (const std::vector<double>* b : rhs) write_vector(w, *b);
  w.end_array();
  w.kv("return_x", true);
  w.end_object();
  return w.str();
}

std::string update_body(const std::string& fp,
                        std::span<const EdgeUpdate> updates) {
  JsonWriter w;
  w.begin_object().kv("op", "update").kv("graph", fp);
  w.key("updates").begin_array();
  for (const EdgeUpdate& u : updates) {
    w.begin_object();
    w.kv("kind", u.kind == UpdateKind::insert   ? "insert"
                 : u.kind == UpdateKind::remove ? "delete"
                                                : "reweight");
    w.kv("u", static_cast<std::int64_t>(u.u));
    w.kv("v", static_cast<std::int64_t>(u.v));
    if (u.kind != UpdateKind::remove) w.kv("weight", u.weight);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string with_id(std::string_view body, std::int64_t id) {
  std::string line = "{\"id\":" + std::to_string(id);
  if (body.size() > 2) line += ',';
  line.append(body.substr(1));
  return line;
}

std::int64_t response_id(std::string_view line) {
  constexpr std::string_view key = "\"id\":";
  const std::size_t at = line.substr(0, 64).find(key);
  if (at == std::string_view::npos) return -1;
  const std::string digits(line.substr(at + key.size(), 24));
  char* end = nullptr;
  const long long id = std::strtoll(digits.c_str(), &end, 10);
  return end == digits.c_str() ? -1 : id;
}

ZipfPicker::ZipfPicker(int n) {
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

double ZipfPicker::probability(int item) const {
  const auto i = static_cast<std::size_t>(item);
  return cdf_[i] - (i == 0 ? 0.0 : cdf_[i - 1]);
}

int ZipfPicker::pick(hicond::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1));
}

StrokeGenerator::StrokeGenerator(GridShape shape, std::uint64_t seed)
    : shape_(shape), rng_(seed) {}

double StrokeGenerator::edit_weight(double max_log10) {
  return std::pow(10.0, rng_.uniform(-3.0, max_log10));
}

std::pair<vidx, vidx> StrokeGenerator::random_grid_edge() {
  for (;;) {
    const auto v = static_cast<vidx>(
        rng_.uniform_index(static_cast<std::uint64_t>(shape_.vertices())));
    const vidx x = v % shape_.nx;
    const vidx y = (v / shape_.nx) % shape_.ny;
    const vidx z = v / (shape_.nx * shape_.ny);
    const int axes = shape_.nz > 1 ? 3 : 2;
    const auto axis = static_cast<int>(rng_.uniform_index(axes));
    if (axis == 0 && x + 1 < shape_.nx) return {v, v + 1};
    if (axis == 1 && y + 1 < shape_.ny) return {v, v + shape_.nx};
    if (axis == 2 && z + 1 < shape_.nz) {
      return {v, v + shape_.nx * shape_.ny};
    }
  }
}

std::vector<EdgeUpdate> StrokeGenerator::local_stroke() {
  const auto edits = 1 + static_cast<int>(rng_.uniform_index(8));
  std::vector<EdgeUpdate> out;
  for (int e = 0; e < edits; ++e) {
    const std::uint64_t kind = rng_.uniform_index(4);
    if (kind < 2) {
      const auto [u, v] = random_grid_edge();
      out.push_back({UpdateKind::reweight, u, v, edit_weight(1.0)});
      continue;
    }
    // A chord across one grid cell: (x, y) -- (x + 1, y + 1), or its 3D
    // analogue in a random plane. Present chords are deleted instead.
    const auto [u, w] = random_grid_edge();
    const vidx step = w - u;
    const vidx other = step == 1 ? shape_.nx : 1;
    const vidx v = w + other;
    const bool fits = v < shape_.vertices() &&
                      (step == 1 ? (u / shape_.nx) % shape_.ny + 1 < shape_.ny
                                 : u % shape_.nx + 1 < shape_.nx);
    if (!fits) continue;
    const std::pair<vidx, vidx> chord{u, v};
    if (chords_.erase(chord) > 0) {
      out.push_back({UpdateKind::remove, u, v, 0.0});
    } else {
      chords_.insert(chord);
      out.push_back({UpdateKind::insert, u, v, edit_weight(1.0)});
    }
  }
  if (out.empty()) {
    const auto [u, v] = random_grid_edge();
    out.push_back({UpdateKind::reweight, u, v, edit_weight(1.0)});
  }
  return out;
}

std::vector<EdgeUpdate> StrokeGenerator::bulk_reweight(double fraction) {
  const vidx nx = shape_.nx;
  const vidx ny = shape_.ny;
  const vidx nz = shape_.nz;
  const double edges =
      static_cast<double>((nx - 1) * ny * nz + nx * (ny - 1) * nz +
                          nx * ny * (nz - 1));
  const auto count = static_cast<std::size_t>(std::ceil(fraction * edges));
  std::set<std::pair<vidx, vidx>> picked;
  while (picked.size() < count) picked.insert(random_grid_edge());
  std::vector<EdgeUpdate> out;
  out.reserve(count);
  for (const auto& [u, v] : picked) {
    out.push_back({UpdateKind::reweight, u, v, edit_weight(-1.0)});
  }
  return out;
}

}  // namespace bench
