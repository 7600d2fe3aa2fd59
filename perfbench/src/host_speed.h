#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

// Times a fixed reference computation, about a millisecond at a time, on a
// background thread while the load runs: dependent loads over a 256 KiB
// random cycle (cache-resident, like the served graph and trees) mixed with
// integer arithmetic, the same kind of work as a walk step.
// It shares no code with the program under test, so its time moves only with
// the speed the host gives this run. Each chunk is followed by a pause ten
// times its length, so the probe takes about a tenth of one CPU.
class HostSpeedProbe {
 public:
  HostSpeedProbe();
  ~HostSpeedProbe();

  HostSpeedProbe(const HostSpeedProbe&) = delete;
  HostSpeedProbe& operator=(const HostSpeedProbe&) = delete;

  void Start();
  // Stops the thread and waits for it; returns the median chunk time in ms.
  double Stop();

 private:
  double Chunk();

  std::vector<unsigned> next_;
  unsigned cursor_ = 0;
  unsigned long long mix_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::vector<double> chunk_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
