// Measurement helpers shared by the workloads: order statistics, report
// digests for the correctness check, host labels and the result line.

#ifndef TASQBENCH_MEASURE_H_
#define TASQBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tasq/what_if.h"

namespace tasqbench {

/// Nearest-rank q-quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Hash of the bit pattern of every field of a report. Two reports have
/// equal digests exactly when every field is bit-identical (up to 64-bit
/// hash collisions), so a served report is checked against a direct
/// BuildWhatIfReport without keeping either report around.
uint64_t ReportDigest(const tasq::WhatIfReport& report);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// One-line JSON object naming the host: CPU model, nproc, the SIMD tier
/// ml/kernels.cc is compiled for, compiler and build type.
std::string HostLabel();

/// Metrics of one run, printed as the benchmark's result line.
class ResultLine {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool AllFinite() const;
  /// Prints every metric as a human-readable table row.
  void PrintTable() const;
  /// The last line of stdout: {"correct", "attempted", "failed", "metrics"}.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace tasqbench

#endif  // TASQBENCH_MEASURE_H_
