// In-memory span recording for the benchmark's traced runs. Spans are
// recorded by the benchmark around its calls into each layer's public
// entry points; nothing inside the program is instrumented.

#ifndef TASQBENCH_TRACE_H_
#define TASQBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace tasqbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds of `t` on the steady clock.
inline int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// One timed interval. `parent` indexes the same log (-1 for a root);
/// spans of one request share `request` (-1 when a span serves several,
/// such as one batched NN forward pass).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
};

/// Append-only span log owned by one thread. Logs of several threads are
/// combined with Append once those threads have been joined.
class SpanLog {
 public:
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, int64_t request);
  /// Opens a span starting now; close it with End.
  int32_t Begin(const char* name, int32_t parent, int64_t request);
  void End(int32_t id);
  /// Appends another log, rebasing its parent indices.
  void Append(const SpanLog& other);
  void Reserve(size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time per span name: a span's duration minus the part of it that
/// its children cover.
struct LayerTime {
  std::string name;
  uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};
std::vector<LayerTime> SelfTimes(const std::vector<Span>& spans);

/// Mean duration of the spans named `name`, in nanoseconds (0 if none).
double MeanNs(const std::vector<Span>& spans, const char* name);

/// Returns an empty string when every child span lies inside its parent
/// and every parent index is valid, else a description of the first
/// violation.
std::string CheckNesting(const std::vector<Span>& spans);

/// Writes the spans as JSON lines; returns false on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Prints the self-time table, sorted by self time, to stdout.
void PrintSelfTimes(const char* title, const std::vector<LayerTime>& rows);

}  // namespace tasqbench

#endif  // TASQBENCH_TRACE_H_
