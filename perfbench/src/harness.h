// Shared pieces of the benchmark binary: the workload interface, the span
// recorder of the traced run, the process-isolated reference runner, and
// small statistics and JSON helpers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start);

// Work counters of one operation, keyed by per-layer metric name.
using Counters = std::map<std::string, double>;

// What one operation produced.
struct OpOutput {
  // The outputs the reference checks, e.g. {verdict} or {outcome, atoms}.
  std::vector<int64_t> result;
  // Throughput units this operation covered (rules, |D| tuples or atoms).
  double items = 0;
  // Work counters; filled by traced operations only.
  Counters counters;
};

// The reference outputs of one input. A non-empty `defect` means the
// reference itself found the program wrong (e.g. a fixpoint that is not a
// model); every operation on that input then counts as failed.
struct Expected {
  std::vector<int64_t> result;
  std::string defect;
};

// One recorded span: a public call made by the benchmark. `parent` indexes
// the enclosing span (-1 for an operation's root span).
struct Span {
  const char* name = nullptr;
  int parent = -1;
  uint32_t op = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Records spans in memory; written out when the run ends. A null Tracer*
// turns every Scope into a no-op, so one code path serves both runs.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  void set_op(uint32_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time (span duration minus the time its child spans cover), summed
  // per span name, in ms.
  std::map<std::string, double> SelfMillis() const;

  // Chrome trace-event JSON (viewable in Perfetto / chrome://tracing).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
  uint32_t op_ = 0;
};

// Sizes of a run: the benchmark's own scale, or a tiny one for self-tests.
enum class Scale { kFull, kTiny };

// A workload: a seeded list of inputs plus the operation run on each.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual size_t NumInputs() const = 0;
  // The unit counted by OpOutput::items ("rules", "tuples", "atoms") and the
  // name of the matching throughput metric in the record.
  virtual const char* ItemUnit() const = 0;
  virtual const char* ThroughputName() const = 0;

  // The reference outputs of input `i`. Runs in a child process, on the
  // generated input only, and never through the operation's code path
  // where an independent route exists.
  virtual Expected Reference(size_t i) const = 0;

  // Checks the reference outputs as a set, e.g. that a list holds both
  // verdicts. Returns the problem, or "" when there is none.
  virtual std::string CheckReferences(
      const std::vector<Expected>& /*expected*/) const {
    return "";
  }

  // The program's set-up: builds the resident state (database, disk file,
  // parsed programs) from scratch. May run several times.
  [[nodiscard]] virtual chase::Status SetUp() = 0;

  // Frees generated data the operations no longer need; called after the
  // last set-up, so the peak resident set covers only the program's state.
  virtual void DropGenerated() {}

  // One operation on input `i`. With a tracer, the operation is composed
  // from the layers' public calls and every call is recorded as a span.
  [[nodiscard]]
  virtual chase::StatusOr<OpOutput> Run(size_t i, Tracer* tracer) = 0;

  // Counters that do not repeat exactly between runs, with the reason.
  virtual std::vector<std::pair<std::string, std::string>> NonRepeating()
      const {
    return {};
  }

  // Reader-facing description of input `i` for the record.
  virtual std::string Describe(size_t i) const = 0;
};

using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(uint64_t seed, Scale scale)>;

// Every workload by name, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, WorkloadFactory>>& Registry();

std::unique_ptr<Workload> MakeSlRules(uint64_t seed, Scale scale);
std::unique_ptr<Workload> MakeLMemDb(uint64_t seed, Scale scale);
std::unique_ptr<Workload> MakeLDiskDb(uint64_t seed, Scale scale);
std::unique_ptr<Workload> MakeChaseLubm(uint64_t seed, Scale scale);
std::unique_ptr<Workload> MakeChaseJoins(uint64_t seed, Scale scale);

// Computes every input's reference in forked child processes, at most
// `parallel` at a time, so reference memory never shows in the parent's
// peak RSS. Must run before the parent starts any thread. Fails if a child
// crashes or reports nothing.
[[nodiscard]] chase::StatusOr<std::vector<Expected>> ComputeReferences(
    const Workload& workload, unsigned parallel);

// Linear-interpolated quantile (q in [0, 1]) of `values`.
double Quantile(std::vector<double> values, double q);

// A fixed piece of work that shares no code with the program. Its time
// tracks the speed the host gives this process at the moment, so operation
// times can be stated at one reference speed (see main.cc). It has three
// parts, because memory-bound and compute-bound code slow down by different
// amounts when other tenants load the host: dependent random reads over a
// 4 MiB table with hash-set inserts, probes and a sort; a semi-naive
// transitive closure over a hash set of pairs; and a nested-loop join.
class SpeedProbe {
 public:
  SpeedProbe();
  // Runs the work once; returns its wall time in ms.
  double RunMs();

 private:
  using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

  std::vector<uint64_t> table_;
  std::vector<std::vector<uint32_t>> graph_;  // adjacency lists
  Pairs left_, right_;                        // the joined relations
  uint64_t sink_ = 0;
};

// Forgets this process's peak resident set so far (Linux clear_refs), so a
// later PeakRssMb() covers only what happens after the call.
void ResetPeakRss();

// Peak resident set of this process since start or the last ResetPeakRss(),
// in MiB.
double PeakRssMb();

// JSON helpers: a string literal with escapes, and a number with all the
// digits a double carries.
std::string JsonString(std::string_view text);
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
