#include "er/clustering.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace erlb {
namespace er {

Clusters ClusterMatches(const MatchResult& matches) {
  const std::vector<MatchPair>& pairs = matches.pairs();
  std::vector<uint64_t> ids;
  ids.reserve(2 * pairs.size());
  for (const MatchPair& p : pairs) {
    ids.push_back(p.first);
    ids.push_back(p.second);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ERLB_CHECK(ids.size() < std::numeric_limits<uint32_t>::max());
  auto dense = [&ids](uint64_t id) {
    return static_cast<uint32_t>(
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  };

  // Union by size with path halving over dense indices.
  std::vector<uint32_t> parent(ids.size());
  std::iota(parent.begin(), parent.end(), 0u);
  std::vector<uint32_t> size(ids.size(), 1);
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const MatchPair& p : pairs) {
    uint32_t ra = find(dense(p.first));
    uint32_t rb = find(dense(p.second));
    if (ra == rb) continue;
    if (size[ra] < size[rb]) std::swap(ra, rb);
    parent[rb] = ra;
    size[ra] += size[rb];
  }

  // In ascending id order, each root's cluster is opened by its smallest
  // member and filled in ascending order: no sort is needed.
  constexpr uint32_t kNoCluster = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> cluster_of_root(ids.size(), kNoCluster);
  Clusters clusters;
  for (size_t i = 0; i < ids.size(); ++i) {
    uint32_t& c = cluster_of_root[find(static_cast<uint32_t>(i))];
    if (c == kNoCluster) {
      c = static_cast<uint32_t>(clusters.size());
      clusters.emplace_back();
    }
    clusters[c].push_back(ids[i]);
  }
  // A self-pair (a, a) makes a one-member component; it is not a
  // duplicate cluster.
  std::erase_if(clusters, [](const std::vector<uint64_t>& members) {
    return members.size() < 2;
  });
  return clusters;
}

MatchResult ClustersToPairs(const Clusters& clusters) {
  MatchResult out;
  for (const auto& cluster : clusters) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      for (size_t j = i + 1; j < cluster.size(); ++j) {
        out.Add(cluster[i], cluster[j]);
      }
    }
  }
  out.Canonicalize();
  return out;
}

}  // namespace er
}  // namespace erlb
