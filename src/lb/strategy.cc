#include "lb/strategy.h"

#include <cctype>

#include "common/logging.h"
#include "lb/basic.h"
#include "lb/block_split.h"
#include "lb/pair_range.h"

namespace erlb {
namespace lb {

const char* StrategyKindToName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kBasic:
      return "Basic";
    case StrategyKind::kBlockSplit:
      return "BlockSplit";
    case StrategyKind::kPairRange:
      return "PairRange";
  }
  return "?";
}

Result<StrategyKind> StrategyKindFromName(std::string_view name) {
  auto equals_ignore_case = [](std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(a[i])) !=
          std::tolower(static_cast<unsigned char>(b[i]))) {
        return false;
      }
    }
    return true;
  };
  const std::vector<StrategyKind>& kinds = AllStrategyKinds();
  for (StrategyKind kind : kinds) {
    if (equals_ignore_case(name, StrategyKindToName(kind))) return kind;
  }
  // "Basic, BlockSplit, or PairRange" — prose built from the canonical
  // list so the error text can never drift from what actually parses.
  std::string expected;
  for (size_t i = 0; i < kinds.size(); ++i) {
    if (i > 0) expected += i + 1 == kinds.size() ? ", or " : ", ";
    expected += StrategyKindToName(kinds[i]);
  }
  return Status::InvalidArgument("unknown strategy \"" + std::string(name) +
                                 "\" (expected " + expected + ")");
}

std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kBasic:
      return std::make_unique<BasicStrategy>();
    case StrategyKind::kBlockSplit:
      return std::make_unique<BlockSplitStrategy>();
    case StrategyKind::kPairRange:
      return std::make_unique<PairRangeStrategy>();
  }
  ERLB_CHECK(false) << "unknown strategy";
  return nullptr;
}

const std::vector<StrategyKind>& AllStrategyKinds() {
  static const std::vector<StrategyKind> kAll = {StrategyKind::kBasic,
                                                 StrategyKind::kBlockSplit,
                                                 StrategyKind::kPairRange};
  return kAll;
}

std::string JoinStrategyKindNames(std::string_view sep) {
  std::string out;
  for (StrategyKind kind : AllStrategyKinds()) {
    if (!out.empty()) out += sep;
    out += StrategyKindToName(kind);
  }
  return out;
}

}  // namespace lb
}  // namespace erlb
