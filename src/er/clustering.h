// Post-processing of match results into entity clusters: the pairwise
// match result is interpreted as a graph and closed transitively
// (connected components), the standard final step of ER pipelines (each
// component = one real-world object).
#ifndef ERLB_ER_CLUSTERING_H_
#define ERLB_ER_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "er/match_result.h"

namespace erlb {
namespace er {

/// A clustering of entity ids: each inner vector is one duplicate
/// cluster with >= 2 members, sorted ascending; clusters sorted by their
/// smallest member. Entities that matched nothing do not appear.
using Clusters = std::vector<std::vector<uint64_t>>;

/// Computes the connected components of `matches`: a union-find over
/// dense indices of the sorted distinct ids, then one pass in id order,
/// so clusters come out sorted. O(P log N) for P pairs over N ids.
Clusters ClusterMatches(const MatchResult& matches);

/// Expands a clustering back to its full pairwise form (every within-
/// cluster pair) — the transitive closure of the original match result.
MatchResult ClustersToPairs(const Clusters& clusters);

}  // namespace er
}  // namespace erlb

#endif  // ERLB_ER_CLUSTERING_H_
