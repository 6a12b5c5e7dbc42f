#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace tasqbench {

namespace {

class Hasher {
 public:
  void Add(uint64_t v) {
    h_ ^= v + 0x9E3779B97F4A7C15ULL + (h_ << 6) + (h_ >> 2);
    h_ = (h_ ^ (h_ >> 31)) * 0xBF58476D1CE4E5B9ULL;
  }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(const tasq::WhatIfPoint& p) {
    Add(p.tokens);
    Add(p.predicted_runtime_seconds);
    Add(p.predicted_slowdown);
    Add(p.token_savings_fraction);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x243F6A8885A308D3ULL;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                          static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

uint64_t ReportDigest(const tasq::WhatIfReport& report) {
  Hasher h;
  h.Add(static_cast<uint64_t>(report.model));
  h.Add(report.reference_tokens);
  h.Add(report.pcc.a);
  h.Add(report.pcc.b);
  h.Add(static_cast<uint64_t>(report.has_pcc));
  h.Add(static_cast<uint64_t>(report.curve.size()));
  for (const tasq::WhatIfPoint& point : report.curve) h.Add(point);
  h.Add(report.elbow_tokens);
  h.Add(report.aggressive);
  h.Add(report.bounded);
  return h.value();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string HostLabel() {
  std::string compiler;
#if defined(__clang__)
  compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  compiler = "gcc " __VERSION__;
#else
  compiler = "unknown";
#endif
  char line[512];
  std::snprintf(line, sizeof(line),
                "{\"cpu\":\"%s\",\"nproc\":%u,\"kernels_isa\":\"%s\","
                "\"compiler\":\"%s\",\"build_type\":\"%s\"}",
                JsonEscape(CpuModel()).c_str(),
                std::thread::hardware_concurrency(), TASQBENCH_KERNEL_ISA,
                JsonEscape(compiler).c_str(), TASQBENCH_BUILD_TYPE);
  return line;
}

void ResultLine::Set(const std::string& name, double value,
                     const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back(Entry{name, value, unit});
}

bool ResultLine::AllFinite() const {
  for (const Entry& entry : entries_) {
    if (!std::isfinite(entry.value)) return false;
  }
  return true;
}

void ResultLine::PrintTable() const {
  for (const Entry& entry : entries_) {
    std::printf("  %-28s %16.6g %s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
}

std::string ResultLine::Json(bool correct, uint64_t attempted,
                             uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    // %.17g keeps every digit. A non-finite value would break the JSON;
    // it is written as -1 and AllFinite() marks the run incorrect.
    double v = std::isfinite(entries_[i].value) ? entries_[i].value : -1.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i > 0 ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace tasqbench
