// Brute-force reference implementations of blocked matching — the ground
// truth every MR strategy must reproduce pair-for-pair. Used by the test
// suite and for small-input sanity checks.
#ifndef ERLB_CORE_REFERENCE_H_
#define ERLB_CORE_REFERENCE_H_

#include <vector>

#include "er/blocking.h"
#include "er/entity.h"
#include "er/match_result.h"
#include "er/matcher.h"

namespace erlb {
namespace core {

/// Sequentially matches all within-block pairs of one source.
/// Entities with empty blocking keys are ignored.
er::MatchResult ReferenceDeduplicate(const std::vector<er::Entity>& entities,
                                     const er::BlockingFunction& blocking,
                                     const er::Matcher& matcher);

/// Sequentially matches all R×S pairs sharing a blocking key.
er::MatchResult ReferenceLink(const std::vector<er::Entity>& r_entities,
                              const std::vector<er::Entity>& s_entities,
                              const er::BlockingFunction& blocking,
                              const er::Matcher& matcher);

/// Total within-block pair count of one source (for workload checks).
uint64_t ReferencePairCount(const std::vector<er::Entity>& entities,
                            const er::BlockingFunction& blocking);

}  // namespace core
}  // namespace erlb

#endif  // ERLB_CORE_REFERENCE_H_
