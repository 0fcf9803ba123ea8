// Fixture: std::thread outside the sanctioned spawners. Expect:
// naked-thread on each marked line.
#include <thread>
#include <vector>

namespace fixture {

void FanOut(int n) {
  std::vector<std::thread> workers;  // BAD: spawn outside ParallelFor
  for (int i = 0; i < n; ++i) {
    workers.emplace_back([] {});
  }
  for (std::thread& t : workers) t.join();  // BAD: same rule, same type
}

}  // namespace fixture
