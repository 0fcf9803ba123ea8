// Observability worked example: run a non-linear chase with the
// metrics registry, the trace-span recorder, and a live progress reporter
// all enabled from library code (chasectl wires the same three behind
// --metrics/--trace/--progress), then write the artifacts:
//
//   $ ./example_observability [trace.json [metrics.json]]
//
// Open trace.json at https://ui.perfetto.dev (or chrome://tracing): the
// chase's "run" span, one "round" span per round, and under each the
// per-rule "rule" spans of its body joins. metrics.json holds the
// counter/gauge/histogram dump (see README "Observability" for the
// schema).

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "chase/chase_engine.h"
#include "logic/parser.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace {

// Transitive closure (a genuinely non-linear join) over a chain, plus an
// existential fan-out — enough rounds and homomorphism work that the trace
// has real structure, while still finishing instantly.
constexpr const char* kProgram = R"(
e(a,b). e(b,c). e(c,d). e(d,f). e(f,g). e(g,h). e(h,i).

e(X, Y), e(Y, Z) -> e(X, Z).          % composition: 2-atom body
e(X, Y) -> exists W : reach(X, W).    % existential fan-out
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace chase;
  const std::string trace_path = argc > 1 ? argv[1] : "trace.json";
  const std::string metrics_path = argc > 2 ? argv[2] : "metrics.json";

  auto program = ParseProgram(kProgram);
  if (!program.ok()) {
    std::cerr << "parse failed: " << program.status() << "\n";
    return 1;
  }

  // 1. Turn everything on. Order matters only in that recording should be
  // live before the instrumented work starts. Both are process-global and
  // OFF by default — a run that never calls these pays one relaxed atomic
  // load per instrumentation site.
  obs::MetricsRegistry::SetEnabled(true);
  obs::TraceRecorder::Get().Start();

  // 2. A progress sink the engine updates with relaxed stores, and a
  // reporter thread that prints one status line per second to stderr.
  // (For this toy input you will only see the final line Stop() prints;
  // on an hour-long chase this is the difference between a black box and
  // "round 841, 31M atoms, 210k triggers/sec".)
  obs::ChaseProgressSink sink;
  obs::ProgressReporter reporter(&std::cerr, &sink,
                                 std::chrono::seconds(1));

  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.max_atoms = 1'000'000;
  options.progress = &sink;

  StatusOr<ChaseResult> result =
      RunChase(*program->database, program->tgds, options);
  reporter.Stop();
  if (!result.ok()) {
    std::cerr << "chase failed: " << result.status() << "\n";
    return 1;
  }
  std::cout << "Chase " << ChaseOutcomeName(result->outcome) << ": "
            << result->rounds << " rounds, " << result->triggers_fired
            << " triggers, " << result->instance.NumAtoms() << " atoms.\n";

  // 3. Write the artifacts. WriteJsonFile stops the recorder first, so
  // every span destructed above is committed.
  if (Status status = obs::TraceRecorder::Get().WriteJsonFile(trace_path);
      !status.ok()) {
    std::cerr << "trace write failed: " << status << "\n";
    return 1;
  }
  obs::MetricsRegistry::SetEnabled(false);
  std::ofstream metrics_out(metrics_path);
  obs::MetricsRegistry::Get().DumpJson(metrics_out);
  if (!metrics_out.good()) {
    std::cerr << "metrics write failed: " << metrics_path << "\n";
    return 1;
  }
  std::cout << "Wrote " << trace_path << " ("
            << obs::TraceRecorder::Get().recorded() << " spans, "
            << obs::TraceRecorder::Get().dropped()
            << " dropped) — load it at https://ui.perfetto.dev\n"
            << "Wrote " << metrics_path << "\n";
  return 0;
}
