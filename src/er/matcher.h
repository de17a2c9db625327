// Matchers decide whether two entities refer to the same real-world
// object. The reduce phase of the matching job sketches each entity of a
// block once (Sketch()) and calls MatchSketched() for every candidate
// pair; Match() is the same decision without sketches.
#ifndef ERLB_ER_MATCHER_H_
#define ERLB_ER_MATCHER_H_

#include <functional>
#include <memory>
#include <string>

#include "er/entity.h"
#include "er/similarity.h"

namespace erlb {
namespace er {

/// Pairwise match decision. Implementations must be thread-safe (reduce
/// tasks run in parallel) and symmetric: Match(a,b) == Match(b,a).
class Matcher {
 public:
  virtual ~Matcher() = default;
  /// True iff `a` and `b` are considered the same real-world object.
  virtual bool Match(const Entity& a, const Entity& b) const = 0;
  /// A per-entity summary that MatchSketched may read instead of
  /// recomputing it for every pair. The default is an unusable sketch.
  virtual FieldSketch Sketch(const Entity& e) const;
  /// Match(a, b), given sa = Sketch(a) and sb = Sketch(b) of this
  /// matcher. The default ignores the sketches and calls Match, so a
  /// matcher (or decorator) that overrides only Match keeps its exact
  /// decisions and call count.
  virtual bool MatchSketched(const Entity& a, const FieldSketch& sa,
                             const Entity& b, const FieldSketch& sb) const;
  /// Similarity score in [0,1] (diagnostic; Match need not derive from it).
  virtual double Similarity(const Entity& a, const Entity& b) const = 0;
  virtual std::string Describe() const = 0;
};

/// The paper's matcher: normalized edit distance of one field (the title),
/// match iff similarity >= threshold (0.8 in the paper). Uses the banded
/// Levenshtein kernel for the threshold test.
class EditDistanceMatcher : public Matcher {
 public:
  explicit EditDistanceMatcher(double threshold = 0.8, size_t field = 0);
  bool Match(const Entity& a, const Entity& b) const override;
  double Similarity(const Entity& a, const Entity& b) const override;
  std::string Describe() const override;

  double threshold() const { return threshold_; }

 private:
  double threshold_;
  size_t field_;
};

/// Jaro-Winkler similarity of one field (standard record-linkage
/// matcher, well suited to short name-like attributes). Its sketch is the
/// field's SketchField, so a sketched pair is rejected by the byte-count
/// bound without rereading either field's bytes.
class JaroWinklerMatcher : public Matcher {
 public:
  explicit JaroWinklerMatcher(double threshold = 0.9, size_t field = 0,
                              double prefix_scale = 0.1);
  bool Match(const Entity& a, const Entity& b) const override;
  FieldSketch Sketch(const Entity& e) const override;
  bool MatchSketched(const Entity& a, const FieldSketch& sa, const Entity& b,
                     const FieldSketch& sb) const override;
  double Similarity(const Entity& a, const Entity& b) const override;
  std::string Describe() const override;

 private:
  double threshold_;
  size_t field_;
  double prefix_scale_;
};

/// Adapts an arbitrary predicate (e.g. for tests).
class LambdaMatcher : public Matcher {
 public:
  LambdaMatcher(std::function<bool(const Entity&, const Entity&)> fn,
                std::string description);
  bool Match(const Entity& a, const Entity& b) const override;
  double Similarity(const Entity& a, const Entity& b) const override;
  std::string Describe() const override;

 private:
  std::function<bool(const Entity&, const Entity&)> fn_;
  std::string description_;
};

}  // namespace er
}  // namespace erlb

#endif  // ERLB_ER_MATCHER_H_
