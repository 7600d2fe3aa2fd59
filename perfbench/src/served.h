#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

// One crashsim_serve child process. Start() returns once the server
// answers a ping; the destructor stops it (SIGTERM, then waits).
class ServerProcess {
 public:
  ServerProcess(std::string binary, std::vector<std::string> args,
                std::string port_file, std::string log_file);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns the server and waits (at most 120 s) until it accepts queries.
  // Returns the seconds from spawn to the first answered ping.
  double Start();
  // SIGTERM and wait for exit; idempotent.
  void Stop();

  int port() const { return port_; }
  // The server's peak resident set (VmHWM) in MiB.
  double PeakRssMb() const;

 private:
  std::string binary_;
  std::vector<std::string> args_;
  std::string port_file_;
  std::string log_file_;
  pid_t pid_ = -1;
  int port_ = 0;
};

// A blocking loopback connection speaking the framed protocol.
class Connection {
 public:
  explicit Connection(int port);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Sends one request and returns the response payload; false on a
  // transport failure.
  bool Call(const std::string& request, std::string* response);

 private:
  int fd_ = -1;
};

// One request of the timed phase, as the client saw it.
struct Sample {
  int64_t key = 0;
  double latency_ms = 0.0;
  bool transport_ok = false;
  std::string response;
};

// Closed-loop load: `clients` threads, each with its own connection, send
// requests from `plan` back to back for `seconds`. Returns every completed
// (or transport-failed) request.
std::vector<Sample> RunLoad(int port, RequestPlan* plan, int clients,
                            double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
