// The repository benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--record PATH] [--spans PATH]
//
// Generates the workload's inputs from the seed, computes each input's
// reference output in a child process, times the program's set-up, then
// runs one untimed warm-up cycle and a closed loop with one client: the
// next operation starts when the previous one ends, cycling through the
// input list in whole cycles for S seconds. Every output is checked
// against its reference. Times are stated at a reference host speed (see
// kProbeReferenceMs).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced cycles: in a traced cycle each operation is composed from the
// layers' public calls, every call is recorded as a span, and the per-layer
// metrics are printed. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the full typed record goes
// to --record. The exit code is 0 only when every output was correct.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"op_ms_p50", "ms"},    {"op_ms_p75", "ms"},       {"items_per_s", "1/s"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"logic.parse_ms", "ms"},
    {"logic.parse_mb_per_s", "MB/s"},
    {"logic.load_db_ms", "ms"},
    {"graph.build_ms", "ms"},
    {"graph.scc_ms", "ms"},
    {"graph.nodes", "count"},
    {"graph.edges", "count"},
    {"graph.special_sccs", "count"},
    {"core.simplify_ms", "ms"},
    {"core.support_ms", "ms"},
    {"core.db_shapes", "count"},
    {"core.derived_shapes", "count"},
    {"core.simplified_tgds", "count"},
    {"storage.find_shapes_ms", "ms"},
    {"storage.tuples_scanned", "count"},
    {"storage.exists_queries", "count"},
    {"storage.shapes_per_exists_query", "ratio"},
    {"pager.open_ms", "ms"},
    {"pager.pages_read", "count"},
    {"pager.pool_hit_ratio", "ratio"},
    {"exec.frontier_depths", "count"},
    {"exec.worker_imbalance", "ratio"},
    {"chase.run_ms", "ms"},
    {"chase.rounds", "count"},
    {"chase.triggers_fired", "count"},
    {"chase.atoms", "count"},
    {"chase.atoms_per_trigger", "ratio"},
    {"chase.us_per_trigger", "us"},
    {"query.eval_ms", "ms"},
    {"query.answers", "count"},
    {"bench.glue_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

// Counters summed per cycle of the input list; all must repeat exactly
// between cycles and runs unless the workload lists them as NonRepeating.
constexpr const char* kCycleCounters[] = {
    "graph.nodes",           "graph.edges",          "graph.special_sccs",
    "core.db_shapes",        "core.derived_shapes",  "core.simplified_tgds",
    "storage.tuples_scanned", "storage.exists_queries", "pager.pages_read",
    "exec.frontier_depths",  "chase.rounds",         "chase.triggers_fired",
    "chase.atoms",           "query.answers",
};

constexpr int kSetUpReps = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  Scale scale = Scale::kFull;
  std::string record;
  std::string spans;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale full|tiny] [--record PATH] "
               "[--spans PATH]\nworkloads:";
  for (const auto& [name, factory] : Registry()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 120) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") Usage("bad --scale " + value);
      args.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
    } else if (flag == "--record") {
      args.record = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.seconds == 0 || args.trace < 0) {
    Usage("--workload, --seconds and --trace are required");
  }
  return args;
}

// Host speed: the SpeedProbe's time at which times are stated. Operation
// times are scaled by kProbeReferenceMs over the median probe time of their
// cycle, so a host that gives this process a slower CPU for a while (other
// tenants) moves the probe and the operation alike and the stated time
// stays. About the probe's time on a 2.0 GHz Xeon vCPU in a fast spell.
constexpr double kProbeReferenceMs = 4.0;

// The operations of one kind (untraced or traced) in the closed loop.
struct Phase {
  // Wall time of each operation, as measured and at reference speed.
  std::vector<double> op_ms;
  std::vector<double> op_ref_ms;
  // The input of each operation.
  std::vector<size_t> op_input;
  // Items per second of each cycle, at reference speed.
  std::vector<double> cycle_rate;
  // Probe time of each operation.
  std::vector<double> probe_ms;
  double busy_ms = 0;
  uint64_t cycles = 0;
};

class Runner {
 public:
  Runner(Workload* workload, std::vector<Expected> expected)
      : workload_(workload), expected_(std::move(expected)) {}

  // Checks one operation's output against its reference; a mismatch or an
  // error counts as a failure.
  bool Check(size_t input, const chase::StatusOr<OpOutput>& out,
             const char* where) {
    ++attempted_;
    std::string problem;
    if (!out.ok()) {
      problem = out.status().ToString();
    } else if (!expected_[input].defect.empty()) {
      problem = "reference: " + expected_[input].defect;
    } else if (out->result != expected_[input].result) {
      problem = "output differs from the reference";
    }
    if (problem.empty()) return true;
    Fail(std::string(where) + " input " + std::to_string(input) + ": " +
         problem);
    return false;
  }

  void Fail(const std::string& problem) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(problem);
  }

  // Whole cycles over the input list until `seconds` have passed (at least
  // one). With a tracer, every second cycle is traced (at least one), so the
  // traced and untraced operations meet the same host conditions.
  void Loop(double seconds, Tracer* tracer, Phase* untraced, Phase* traced) {
    const Clock::time_point start = Clock::now();
    uint64_t cycle_index = 0;
    do {
      Tracer* cycle_tracer = cycle_index++ % 2 == 1 ? tracer : nullptr;
      Phase* phase = cycle_tracer != nullptr ? traced : untraced;
      Counters cycle;
      double cycle_items = 0;
      std::vector<double> cycle_ms, cycle_probe_ms;
      for (size_t i = 0; i < workload_->NumInputs(); ++i) {
        cycle_probe_ms.push_back(probe_.RunMs());
        const Clock::time_point op_start = Clock::now();
        chase::StatusOr<OpOutput> out = OpOutput{};
        if (cycle_tracer != nullptr) {
          cycle_tracer->set_op(traced_ops_++);
          Tracer::Scope root(cycle_tracer, "op");
          out = workload_->Run(i, cycle_tracer);
        } else {
          out = workload_->Run(i, nullptr);
        }
        cycle_ms.push_back(MillisSince(op_start));
        if (!Check(i, out, cycle_tracer != nullptr ? "traced" : "untraced")) {
          continue;
        }
        cycle_items += out->items;
        if (cycle_tracer == nullptr) {
          untraced_result_[i] = out->result;
          continue;
        }
        // The pipeline composed from public calls must give the verdict
        // and outputs of the library's own entry points.
        const auto untraced_result = untraced_result_.find(i);
        if (untraced_result != untraced_result_.end() &&
            untraced_result->second != out->result) {
          Fail("input " + std::to_string(i) +
               ": composed pipeline differs from the library entry point");
        }
        for (const auto& [name, value] : out->counters) {
          cycle[name] += value;
          totals_[name] += value;
        }
      }
      const double scale = kProbeReferenceMs / Quantile(cycle_probe_ms, 0.5);
      double cycle_ref_ms = 0;
      for (size_t i = 0; i < cycle_ms.size(); ++i) {
        const double ms = cycle_ms[i];
        phase->op_input.push_back(i);
        phase->op_ms.push_back(ms);
        phase->op_ref_ms.push_back(ms * scale);
        phase->busy_ms += ms;
        cycle_ref_ms += ms * scale;
      }
      phase->probe_ms.insert(phase->probe_ms.end(), cycle_probe_ms.begin(),
                             cycle_probe_ms.end());
      phase->cycle_rate.push_back(cycle_items / (cycle_ref_ms * 1e-3));
      if (cycle_tracer != nullptr) {
        if (phase->cycles == 0) {
          cycle_counters_ = cycle;
        } else {
          CheckRepeat(cycle);
        }
      }
      ++phase->cycles;
    } while (MillisSince(start) < seconds * 1e3 ||
             (tracer != nullptr && cycle_index < 2));
  }

  // The probe's time now, as the median of a few runs.
  double ProbeMs() {
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) ms.push_back(probe_.RunMs());
    return Quantile(ms, 0.5);
  }

  // Deterministic work counters must be identical in every cycle.
  void CheckRepeat(const Counters& again) {
    const Counters& first = cycle_counters_;
    std::set<std::string> exempt;
    for (const auto& [name, reason] : workload_->NonRepeating()) {
      exempt.insert(name);
    }
    for (const char* name : kCycleCounters) {
      if (exempt.count(name) > 0) continue;
      const auto a = first.find(name);
      const auto b = again.find(name);
      const double va = a == first.end() ? 0 : a->second;
      const double vb = b == again.end() ? 0 : b->second;
      if (va != vb) {
        Fail(std::string("work counter ") + name +
             " did not repeat between cycles");
      }
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const Counters& cycle_counters() const { return cycle_counters_; }
  const Counters& totals() const { return totals_; }
  uint32_t traced_ops() const { return traced_ops_; }

 private:
  Workload* workload_;
  std::vector<Expected> expected_;
  std::map<size_t, std::vector<int64_t>> untraced_result_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  Counters cycle_counters_;
  Counters totals_;
  uint32_t traced_ops_ = 0;
  SpeedProbe probe_;
};

double Get(const Counters& counters, const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Per-layer metrics of the traced phase.
std::map<std::string, double> PerLayer(const Runner& runner,
                                       const Tracer& tracer,
                                       double overhead_ms) {
  std::map<std::string, double> out;
  const double ops = std::max<uint32_t>(1, runner.traced_ops());
  const std::map<std::string, double> self = tracer.SelfMillis();
  for (const auto& [span, ms] : self) {
    out[(span == "op" ? std::string("bench.glue") : span) + "_ms"] = ms / ops;
  }
  const Counters& cycle = runner.cycle_counters();
  for (const char* name : kCycleCounters) out[name] = Get(cycle, name);
  const Counters& totals = runner.totals();
  const auto self_ms = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };
  out["logic.parse_mb_per_s"] =
      Ratio(Get(totals, "logic.parse_bytes") * 1e-6,
            self_ms("logic.parse") * 1e-3);
  out["storage.shapes_per_exists_query"] =
      Ratio(Get(cycle, "core.db_shapes"), Get(cycle, "storage.exists_queries"));
  out["pager.pool_hit_ratio"] =
      Ratio(Get(cycle, "pager.pool_hits"),
            Get(cycle, "pager.pool_hits") + Get(cycle, "pager.pool_misses"));
  out["exec.worker_imbalance"] =
      Ratio(Get(totals, "exec.worker_max"), Get(totals, "exec.worker_mean"));
  out["chase.atoms_per_trigger"] =
      Ratio(Get(cycle, "chase.atoms"), Get(cycle, "chase.triggers_fired"));
  out["chase.us_per_trigger"] = Ratio(self_ms("chase.run") * 1e3,
                                      Get(totals, "chase.triggers_fired"));
  out["trace.overhead_ms"] = overhead_ms;
  return out;
}

struct Value {
  double value;
  const char* unit;
  uint64_t samples;
};

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<std::pair<std::string, Value>>&
                           metrics) {
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line << ", ";
    line << JsonString(metrics[i].first)
         << ": {\"value\": " << JsonNumber(metrics[i].second.value)
         << ", \"unit\": " << JsonString(metrics[i].second.unit) << "}";
  }
  line << "}}";
  return line.str();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  WorkloadFactory factory;
  for (const auto& [name, make] : Registry()) {
    if (name == args.workload) factory = make;
  }
  if (!factory) Usage("unknown workload " + args.workload);

  // Scratch files (the l_diskdb database) live beside the records.
  std::error_code ignored;
  std::filesystem::create_directories(".bench_out", ignored);

  const Clock::time_point generate_start = Clock::now();
  std::unique_ptr<Workload> workload = factory(args.seed, args.scale);
  const double generate_s = MillisSince(generate_start) * 1e-3;

  const Clock::time_point reference_start = Clock::now();
  auto expected = ComputeReferences(
      *workload, std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  if (!expected.ok()) {
    std::cerr << "perfbench: " << expected.status() << "\n";
    return 1;
  }
  const double reference_s = MillisSince(reference_start) * 1e-3;
  std::vector<std::vector<int64_t>> reference_results;
  for (const Expected& e : *expected) reference_results.push_back(e.result);
  const std::string reference_problem = workload->CheckReferences(*expected);

  Runner runner(workload.get(), std::move(*expected));
  if (!reference_problem.empty()) runner.Fail(reference_problem);

  // Set-up: the resident state from scratch plus the first operation, so
  // lazy set-up shows here and not in the loop. Repeated; the median of the
  // times at reference speed counts.
  std::vector<double> setup_s, setup_ref_s;
  for (int rep = 0; rep < kSetUpReps; ++rep) {
    const double probe_ms = runner.ProbeMs();
    const Clock::time_point start = Clock::now();
    const chase::Status status = workload->SetUp();
    if (!status.ok()) {
      std::cerr << "perfbench: set-up failed: " << status << "\n";
      return 1;
    }
    const chase::StatusOr<OpOutput> first = workload->Run(0, nullptr);
    setup_s.push_back(MillisSince(start) * 1e-3);
    setup_ref_s.push_back(setup_s.back() * kProbeReferenceMs / probe_ms);
    runner.Check(0, first, "set-up");
  }
  // From here on the peak resident set is the program's own state.
  workload->DropGenerated();
  ResetPeakRss();

  // One untimed cycle so every input's lazy state and the allocator's
  // working set are warm before timing; its outputs are still checked.
  Phase warm_up, untraced, traced_phase;
  runner.Loop(0, nullptr, &warm_up, nullptr);

  const bool traced = args.trace == 1;
  Tracer tracer;
  runner.Loop(args.seconds, traced ? &tracer : nullptr, &untraced,
              &traced_phase);

  // p75 is the highest percentile with at least ten operations beyond it on
  // every workload (chase_lubm completes about 30 in a run). Throughput is
  // the median over cycles, so a burst of interference from other tenants
  // that slows a few cycles does not move it.
  const uint64_t n_ops = untraced.op_ms.size();
  const std::map<std::string, Value> end_to_end = {
      {"op_ms_p50", {Quantile(untraced.op_ref_ms, 0.5), "ms", n_ops}},
      {"op_ms_p75", {Quantile(untraced.op_ref_ms, 0.75), "ms", n_ops}},
      {"op_ms_p90", {Quantile(untraced.op_ref_ms, 0.9), "ms", n_ops}},
      {"op_wall_ms_p50", {Quantile(untraced.op_ms, 0.5), "ms", n_ops}},
      {"probe_ms_p50", {Quantile(untraced.probe_ms, 0.5), "ms", n_ops}},
      {"items_per_s",
       {Quantile(untraced.cycle_rate, 0.5), "1/s", untraced.cycles}},
      {"setup_s", {Quantile(setup_ref_s, 0.5), "s", setup_ref_s.size()}},
      {"setup_wall_s", {Quantile(setup_s, 0.5), "s", setup_s.size()}},
      {"peak_rss_mb", {PeakRssMb(), "MB", 1}},
  };

  std::vector<std::pair<std::string, Value>> printed;
  std::map<std::string, double> per_layer;
  if (traced) {
    // Traced and untraced cycles alternate, so both meet the same host.
    // Each input's median traced time minus its median untraced time,
    // averaged over the inputs.
    const auto input_median = [](const Phase& phase, size_t input) {
      std::vector<double> ms;
      for (size_t k = 0; k < phase.op_ms.size(); ++k) {
        if (phase.op_input[k] == input) ms.push_back(phase.op_ms[k]);
      }
      return Quantile(ms, 0.5);
    };
    double overhead_ms = 0;
    for (size_t i = 0; i < workload->NumInputs(); ++i) {
      overhead_ms +=
          (input_median(traced_phase, i) - input_median(untraced, i)) /
          static_cast<double>(workload->NumInputs());
    }
    per_layer = PerLayer(runner, tracer, overhead_ms);
    for (const Metric& m : kPerLayer) {
      const auto it = per_layer.find(m.name);
      printed.push_back({m.name,
                         {it == per_layer.end() ? 0.0 : it->second, m.unit,
                          traced_phase.op_ms.size()}});
    }
  } else {
    for (const Metric& m : kEndToEnd) {
      printed.push_back({m.name, end_to_end.at(m.name)});
    }
  }

  const bool correct = runner.failed() == 0;
  std::cout << "workload " << args.workload << " seed " << args.seed
            << ": " << workload->NumInputs() << " inputs, "
            << untraced.cycles << " untraced cycles"
            << (traced ? ", " + std::to_string(traced_phase.cycles) +
                             " traced cycles"
                       : "")
            << "; generate " << generate_s << " s, references "
            << reference_s << " s\n";
  for (const auto& [name, v] : printed) {
    std::cout << "  " << name << " = " << v.value << " " << v.unit
              << "  (samples " << v.samples << ")\n";
  }
  for (const std::string& failure : runner.failures()) {
    std::cout << "  FAILED: " << failure << "\n";
  }

  if (traced && !args.spans.empty() && !tracer.WriteChromeTrace(args.spans)) {
    std::cerr << "perfbench: cannot write " << args.spans << "\n";
  }
  if (!args.record.empty()) {
    std::ofstream record(args.record);
    record << "{\n\"stamp\": {\"compiler\": " << JsonString(PERFBENCH_COMPILER)
           << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
           << ", \"nproc\": " << std::thread::hardware_concurrency()
           << ", \"workload\": " << JsonString(args.workload)
           << ", \"seed\": " << args.seed << ", \"scale\": "
           << JsonString(args.scale == Scale::kTiny ? "tiny" : "full")
           << ", \"seconds\": " << JsonNumber(args.seconds)
           << ", \"trace\": " << args.trace
           << ", \"loop\": \"closed, one client, whole cycles\"},\n"
           << "\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << runner.attempted()
           << ", \"failed\": " << runner.failed() << ",\n\"failures\": [";
    for (size_t i = 0; i < runner.failures().size(); ++i) {
      record << (i > 0 ? ", " : "") << JsonString(runner.failures()[i]);
    }
    record << "],\n\"end_to_end\": [";
    bool first = true;
    auto put = [&](const std::string& name, const Value& v) {
      record << (first ? "\n" : ",\n") << "  {\"name\": " << JsonString(name)
             << ", \"value\": " << JsonNumber(v.value)
             << ", \"unit\": " << JsonString(v.unit)
             << ", \"samples\": " << v.samples << "}";
      first = false;
    };
    for (const auto& [name, v] : end_to_end) put(name, v);
    put(workload->ThroughputName(), end_to_end.at("items_per_s"));
    put("error_rate",
        {Ratio(static_cast<double>(runner.failed()),
               static_cast<double>(runner.attempted())),
         "ratio", runner.attempted()});
    record << "],\n\"per_layer\": [";
    first = true;
    if (traced) {
      for (const Metric& m : kPerLayer) {
        put(m.name, {per_layer[m.name], m.unit, traced_phase.op_ms.size()});
      }
    }
    record << "],\n\"not_repeating\": [";
    first = true;
    for (const auto& [name, reason] : workload->NonRepeating()) {
      record << (first ? "" : ", ") << "{\"name\": " << JsonString(name)
             << ", \"reason\": " << JsonString(reason) << "}";
      first = false;
    }
    record << "],\n\"inputs\": [";
    for (size_t i = 0; i < workload->NumInputs(); ++i) {
      record << (i > 0 ? ",\n" : "\n") << "  {\"input\": " << i
             << ", \"unit\": " << JsonString(workload->ItemUnit())
             << ", \"what\": " << JsonString(workload->Describe(i))
             << ", \"reference\": [";
      for (size_t k = 0; k < reference_results[i].size(); ++k) {
        record << (k > 0 ? ", " : "") << reference_results[i][k];
      }
      record << "]}";
    }
    record << "],\n\"timing\": {\"generate_s\": " << JsonNumber(generate_s)
           << ", \"reference_s\": " << JsonNumber(reference_s)
           << ", \"warm_up_s\": " << JsonNumber(warm_up.busy_ms * 1e-3)
           << ", \"probe_reference_ms\": " << JsonNumber(kProbeReferenceMs);
    for (const auto& [name, reps] :
         {std::pair{"setup_s", &setup_ref_s}, {"setup_wall_s", &setup_s}}) {
      record << ", " << JsonString(name) << ": [";
      for (size_t i = 0; i < reps->size(); ++i) {
        record << (i > 0 ? ", " : "") << JsonNumber((*reps)[i]);
      }
      record << "]";
    }
    record << "}\n}\n";
    if (!record) std::cerr << "perfbench: cannot write " << args.record << "\n";
  }

  std::cout << ResultLine(correct, runner.attempted(), runner.failed(),
                          printed)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

const std::vector<std::pair<std::string, WorkloadFactory>>& Registry() {
  static const std::vector<std::pair<std::string, WorkloadFactory>> kRegistry =
      {{"sl_rules", MakeSlRules},
       {"l_memdb", MakeLMemDb},
       {"l_diskdb", MakeLDiskDb},
       {"chase_lubm", MakeChaseLubm},
       {"chase_joins", MakeChaseJoins}};
  return kRegistry;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
