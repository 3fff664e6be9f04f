#include "hicond/dynamic/update.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "hicond/obs/json.hpp"
#include "hicond/serve/request.hpp"

namespace hicond::dynamic {

namespace {

/// Normalized (min, max) endpoint key for an undirected edge.
using EdgeKey = std::pair<vidx, vidx>;

EdgeKey edge_key(vidx u, vidx v) {
  return u < v ? EdgeKey{u, v} : EdgeKey{v, u};
}

std::string edge_label(vidx u, vidx v) {
  std::string label = "(";
  label += std::to_string(u);
  label += ", ";
  label += std::to_string(v);
  label += ')';
  return label;
}

/// Negative sentinel marking "deleted" in the per-edge final-state map;
/// real weights are validated strictly positive before they get there.
constexpr double kDeleted = -1.0;

}  // namespace

Graph apply_updates(const Graph& g, std::span<const EdgeUpdate> updates) {
  const vidx n = g.num_vertices();

  // Pass 1: simulate the ordered batch into a per-edge final-state map.
  // `edits` holds the post-batch weight of every edge the batch mentions
  // (kDeleted for removed edges); presence checks consult the map first so
  // an edge inserted earlier in the batch can be deleted later in it.
  std::map<EdgeKey, double> edits;
  const auto present = [&](const EdgeKey& key) {
    if (const auto it = edits.find(key); it != edits.end()) {
      return it->second > 0.0;
    }
    return g.has_edge(key.first, key.second);
  };
  for (const EdgeUpdate& up : updates) {
    HICOND_CHECK(up.u >= 0 && up.u < n && up.v >= 0 && up.v < n,
                 "update endpoint out of range " + edge_label(up.u, up.v));
    HICOND_CHECK(up.u != up.v,
                 "update must not create a self-loop " +
                     edge_label(up.u, up.v));
    const EdgeKey key = edge_key(up.u, up.v);
    switch (up.kind) {
      case UpdateKind::insert:
        HICOND_CHECK(!present(key),
                     "insert of already-present edge " +
                         edge_label(up.u, up.v));
        HICOND_CHECK(std::isfinite(up.weight) && up.weight > 0.0,
                     "insert weight must be positive and finite for edge " +
                         edge_label(up.u, up.v));
        edits[key] = up.weight;
        break;
      case UpdateKind::remove:
        HICOND_CHECK(present(key),
                     "delete of absent edge " + edge_label(up.u, up.v));
        edits[key] = kDeleted;
        break;
      case UpdateKind::reweight:
        HICOND_CHECK(present(key),
                     "reweight of absent edge " + edge_label(up.u, up.v));
        HICOND_CHECK(std::isfinite(up.weight) && up.weight > 0.0,
                     "reweight weight must be positive and finite (delete "
                     "the edge instead of reweighting to zero) for edge " +
                         edge_label(up.u, up.v));
        edits[key] = up.weight;
        break;
    }
  }

  // Drop edits that are no-ops against the base graph (insert+delete round
  // trips, reweight back to the identical bits) so untouched rows -- and in
  // the extreme the whole graph -- are copied verbatim.
  std::erase_if(edits, [&](const auto& kv) {
    const double base = g.edge_weight(kv.first.first, kv.first.second);
    if (kv.second > 0.0) {
      return base > 0.0 && base == kv.second;  // float-eq: exact
    }
    return base == 0.0;  // float-eq: exact (absent edge deleted again)
  });

  // Pass 2: rebuild the CSR arrays. Per touched vertex, merge the old sorted
  // row with its sorted edit list; untouched rows are copied verbatim, so a
  // net-no-op batch reproduces the base arrays bit for bit and the content
  // fingerprint is unchanged.
  std::vector<std::vector<HalfEdge>> row_edits(static_cast<std::size_t>(n));
  for (const auto& [key, w] : edits) {
    // std::map iterates keys in sorted order, so per-vertex edit lists come
    // out sorted by target without a separate sort.
    row_edits[static_cast<std::size_t>(key.first)].push_back(
        {key.second, w});
    row_edits[static_cast<std::size_t>(key.second)].push_back(
        {key.first, w});
  }
  for (auto& row : row_edits) {
    std::sort(row.begin(), row.end(),
              [](const HalfEdge& a, const HalfEdge& b) { return a.to < b.to; });
  }

  std::vector<eidx> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<vidx> targets;
  std::vector<double> weights;
  targets.reserve(static_cast<std::size_t>(g.num_arcs()));
  weights.reserve(static_cast<std::size_t>(g.num_arcs()));
  for (vidx v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    const auto& edit = row_edits[static_cast<std::size_t>(v)];
    std::size_t i = 0;  // cursor into the old row
    std::size_t j = 0;  // cursor into the edit list
    while (i < nbrs.size() || j < edit.size()) {
      if (j == edit.size() || (i < nbrs.size() && nbrs[i] < edit[j].to)) {
        targets.push_back(nbrs[i]);
        weights.push_back(ws[i]);
        ++i;
      } else if (i < nbrs.size() && nbrs[i] == edit[j].to) {
        // Reweight or delete of an existing arc.
        if (edit[j].weight > 0.0) {
          targets.push_back(nbrs[i]);
          weights.push_back(edit[j].weight);
        }
        ++i;
        ++j;
      } else {
        // Insert of a new arc (a delete edit of an edge absent from the base
        // row cannot reach here: pass 1 requires presence, and insert+delete
        // round trips were erased as no-ops above).
        HICOND_ASSERT(edit[j].weight > 0.0);
        targets.push_back(edit[j].to);
        weights.push_back(edit[j].weight);
        ++j;
      }
    }
    offsets[static_cast<std::size_t>(v) + 1] =
        static_cast<eidx>(targets.size());
  }

  return Graph::from_csr(n, std::move(offsets), std::move(targets),
                         std::move(weights));
}

std::vector<vidx> touched_vertices(std::span<const EdgeUpdate> updates) {
  std::vector<vidx> touched;
  touched.reserve(updates.size() * 2);
  for (const EdgeUpdate& up : updates) {
    touched.push_back(up.u);
    touched.push_back(up.v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

std::vector<EdgeUpdate> parse_updates(const obs::JsonValue& array,
                                      std::size_t max_updates) {
  // A request envelope packs an all-number array (obs::parse_json_packed);
  // its entries are numbers, not update objects.
  HICOND_CHECK(array.is_array() || array.is_number_array(),
               "updates must be a JSON array");
  const std::size_t count =
      checked_size(array.size(), max_updates, "updates count");
  HICOND_CHECK(!array.is_number_array(), "each update must be a JSON object");
  std::vector<EdgeUpdate> updates;
  updates.reserve(count);
  for (const obs::JsonValue& item : array.array) {
    HICOND_CHECK(item.is_object(), "each update must be a JSON object");
    const obs::JsonValue& kind = item.at("kind");
    HICOND_CHECK(kind.is_string(), "update kind must be a string");
    EdgeUpdate up;
    if (kind.string == "insert") {
      up.kind = UpdateKind::insert;
    } else if (kind.string == "delete" || kind.string == "remove") {
      up.kind = UpdateKind::remove;
    } else if (kind.string == "reweight") {
      up.kind = UpdateKind::reweight;
    } else {
      HICOND_CHECK(false, "unknown update kind '" + kind.string + "'");
    }
    // Endpoints arrive as doubles off the wire; integer_field admits only
    // integers a vidx can hold, and apply_updates checks them against the
    // actual graph.
    constexpr std::int64_t kMaxVertex = std::numeric_limits<vidx>::max();
    up.u = static_cast<vidx>(serve::integer_field(item, "u", 0, kMaxVertex));
    up.v = static_cast<vidx>(serve::integer_field(item, "v", 0, kMaxVertex));
    if (up.kind != UpdateKind::remove) {
      const obs::JsonValue& w = item.at("weight");
      HICOND_CHECK(w.is_number(), "update weight must be a number");
      up.weight = w.number;
    }
    updates.push_back(up);
  }
  return updates;
}

}  // namespace hicond::dynamic
