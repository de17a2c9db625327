// Batch-run configuration shared outside the library. The ER workflow
// itself (Figure 2: BDM job -> plan -> match job, and the missing-key
// compositions) runs as a core::Dataflow built with the builders of
// core/stages.h; this header only keeps the default CSV
// input split size, which the repository benchmark reads.
#ifndef ERLB_CORE_PIPELINE_H_
#define ERLB_CORE_PIPELINE_H_

#include <cstdint>

namespace erlb {
namespace core {

struct ErPipelineConfig {
  /// CSV ingest (CsvSourceStage): records per input split. Each split is
  /// read in one bounded batch and becomes one map partition, so m
  /// follows the data size — the HDFS fixed-size-split model.
  uint32_t csv_split_records = 8192;
};

}  // namespace core
}  // namespace erlb

#endif  // ERLB_CORE_PIPELINE_H_
