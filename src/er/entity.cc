#include "er/entity.h"

#include "common/logging.h"

namespace erlb {
namespace er {

namespace {

template <typename GetRef, typename Container>
Partitions SplitImpl(const Container& entities, uint32_t m, GetRef get) {
  ERLB_CHECK(m >= 1);
  Partitions parts(m);
  const size_t n = entities.size();
  // ceil-then-floor split: first (n % m) partitions get one extra record.
  const size_t base = n / m;
  const size_t extra = n % m;
  size_t idx = 0;
  for (uint32_t p = 0; p < m; ++p) {
    size_t count = base + (p < extra ? 1 : 0);
    parts[p].reserve(count);
    for (size_t i = 0; i < count; ++i) {
      parts[p].push_back(get(entities[idx++]));
    }
  }
  ERLB_CHECK(idx == n);
  return parts;
}

}  // namespace

Partitions SplitIntoPartitions(const std::vector<Entity>& entities,
                               uint32_t m) {
  return SplitImpl(entities, m,
                   [](const Entity& e) { return MakeEntityRef(e); });
}

Partitions SplitRefsIntoPartitions(const std::vector<EntityRef>& entities,
                                   uint32_t m) {
  return SplitImpl(entities, m, [](const EntityRef& e) { return e; });
}

std::vector<EntityRef> FlattenPartitions(const Partitions& parts) {
  std::vector<EntityRef> out;
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (const auto& p : parts) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

}  // namespace er
}  // namespace erlb
