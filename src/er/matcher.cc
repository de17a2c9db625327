#include "er/matcher.h"

#include "common/string_util.h"
#include "er/similarity.h"

namespace erlb {
namespace er {

namespace {
const std::string& FieldOrEmpty(const Entity& e, size_t field) {
  static const std::string kEmpty;
  return field < e.fields.size() ? e.fields[field] : kEmpty;
}
}  // namespace

FieldSketch Matcher::Sketch(const Entity& /*e*/) const {
  return FieldSketch{};
}

bool Matcher::MatchSketched(const Entity& a, const FieldSketch& /*sa*/,
                            const Entity& b,
                            const FieldSketch& /*sb*/) const {
  return Match(a, b);
}

EditDistanceMatcher::EditDistanceMatcher(double threshold, size_t field)
    : threshold_(threshold), field_(field) {}

bool EditDistanceMatcher::Match(const Entity& a, const Entity& b) const {
  return EditSimilarityAtLeast(FieldOrEmpty(a, field_),
                               FieldOrEmpty(b, field_), threshold_);
}

double EditDistanceMatcher::Similarity(const Entity& a,
                                       const Entity& b) const {
  return EditSimilarity(FieldOrEmpty(a, field_), FieldOrEmpty(b, field_));
}

std::string EditDistanceMatcher::Describe() const {
  return "edit-distance(threshold=" + FormatDouble(threshold_, 2) +
         ", field=" + std::to_string(field_) + ")";
}

JaroWinklerMatcher::JaroWinklerMatcher(double threshold, size_t field,
                                       double prefix_scale)
    : threshold_(threshold), field_(field), prefix_scale_(prefix_scale) {}

bool JaroWinklerMatcher::Match(const Entity& a, const Entity& b) const {
  return JaroWinklerAtLeast(FieldOrEmpty(a, field_), FieldOrEmpty(b, field_),
                            threshold_, prefix_scale_);
}

FieldSketch JaroWinklerMatcher::Sketch(const Entity& e) const {
  return SketchField(FieldOrEmpty(e, field_));
}

bool JaroWinklerMatcher::MatchSketched(const Entity& a, const FieldSketch& sa,
                                       const Entity& b,
                                       const FieldSketch& sb) const {
  return JaroWinklerAtLeast(FieldOrEmpty(a, field_), sa,
                            FieldOrEmpty(b, field_), sb, threshold_,
                            prefix_scale_);
}

double JaroWinklerMatcher::Similarity(const Entity& a,
                                      const Entity& b) const {
  return JaroWinklerSimilarity(FieldOrEmpty(a, field_),
                               FieldOrEmpty(b, field_), prefix_scale_);
}

std::string JaroWinklerMatcher::Describe() const {
  return "jaro-winkler(threshold=" + FormatDouble(threshold_, 2) +
         ", field=" + std::to_string(field_) + ")";
}

LambdaMatcher::LambdaMatcher(
    std::function<bool(const Entity&, const Entity&)> fn,
    std::string description)
    : fn_(std::move(fn)), description_(std::move(description)) {}

bool LambdaMatcher::Match(const Entity& a, const Entity& b) const {
  return fn_(a, b);
}

double LambdaMatcher::Similarity(const Entity& a, const Entity& b) const {
  return fn_(a, b) ? 1.0 : 0.0;
}

std::string LambdaMatcher::Describe() const { return description_; }

}  // namespace er
}  // namespace erlb
