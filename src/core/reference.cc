#include "core/reference.h"

#include <map>
#include <string>

namespace erlb {
namespace core {

namespace {

std::map<std::string, std::vector<const er::Entity*>> GroupByKey(
    const std::vector<er::Entity>& entities,
    const er::BlockingFunction& blocking) {
  std::map<std::string, std::vector<const er::Entity*>> blocks;
  for (const auto& e : entities) {
    std::string key = blocking.Key(e);
    if (key.empty()) continue;
    blocks[key].push_back(&e);
  }
  return blocks;
}

}  // namespace

er::MatchResult ReferenceDeduplicate(
    const std::vector<er::Entity>& entities,
    const er::BlockingFunction& blocking, const er::Matcher& matcher) {
  er::MatchResult result;
  for (const auto& [key, block] : GroupByKey(entities, blocking)) {
    for (size_t i = 0; i < block.size(); ++i) {
      for (size_t j = i + 1; j < block.size(); ++j) {
        if (matcher.Match(*block[i], *block[j])) {
          result.Add(block[i]->id, block[j]->id);
        }
      }
    }
  }
  result.Canonicalize();
  return result;
}

er::MatchResult ReferenceLink(const std::vector<er::Entity>& r_entities,
                              const std::vector<er::Entity>& s_entities,
                              const er::BlockingFunction& blocking,
                              const er::Matcher& matcher) {
  er::MatchResult result;
  auto r_blocks = GroupByKey(r_entities, blocking);
  auto s_blocks = GroupByKey(s_entities, blocking);
  for (const auto& [key, r_block] : r_blocks) {
    auto it = s_blocks.find(key);
    if (it == s_blocks.end()) continue;
    for (const er::Entity* a : r_block) {
      for (const er::Entity* b : it->second) {
        if (matcher.Match(*a, *b)) {
          result.Add(a->id, b->id);
        }
      }
    }
  }
  result.Canonicalize();
  return result;
}

uint64_t ReferencePairCount(const std::vector<er::Entity>& entities,
                            const er::BlockingFunction& blocking) {
  uint64_t pairs = 0;
  for (const auto& [key, block] : GroupByKey(entities, blocking)) {
    pairs += block.size() * (block.size() - 1) / 2;
  }
  return pairs;
}

er::MatchResult ReferenceMultiPassDeduplicate(
    const std::vector<er::Entity>& entities,
    const std::vector<const er::BlockingFunction*>& passes,
    const er::Matcher& matcher) {
  er::MatchResult all;
  for (const auto* pass : passes) {
    all.Merge(ReferenceDeduplicate(entities, *pass, matcher));
  }
  all.Canonicalize();
  return all;
}

}  // namespace core
}  // namespace erlb
