// Fixture: the sanctioned spawner path — std::thread is this file's whole
// job. Expect: clean.
#include <thread>
#include <vector>

namespace fixture {

struct Pool {
  std::vector<std::thread> workers;  // fine: this IS the ParallelFor home
};

}  // namespace fixture
