#include "served.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/protocol.h"
#include "util/timer.h"

namespace perfbench {

ServerProcess::ServerProcess(std::string binary, std::vector<std::string> args,
                             std::string port_file, std::string log_file)
    : binary_(std::move(binary)),
      args_(std::move(args)),
      port_file_(std::move(port_file)),
      log_file_(std::move(log_file)) {}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::Start() {
  unlink(port_file_.c_str());
  std::vector<char*> argv;
  argv.push_back(binary_.data());
  for (std::string& a : args_) argv.push_back(a.data());
  argv.push_back(nullptr);

  const crashsim::Stopwatch timer;
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    const int log =
        open(log_file_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
      close(log);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  // The port file appears once both listeners are bound; a ping then proves
  // the accept loop is serving.
  while (timer.ElapsedSeconds() < 120.0) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("crashsim_serve exited during start-up; see " +
                               log_file_);
    }
    std::ifstream in(port_file_);
    if (in >> port_ && port_ > 0) {
      Connection conn(port_);
      std::string response;
      if (!conn.Call(R"({"op":"ping"})", &response)) {
        throw std::runtime_error("ping failed");
      }
      return timer.ElapsedSeconds();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw std::runtime_error("crashsim_serve did not start within 120 s");
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

Connection::Connection(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd_);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed");
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::Call(const std::string& request, std::string* response) {
  if (!crashsim::WriteFrame(fd_, request).ok()) return false;
  crashsim::StatusOr<std::string> got = crashsim::ReadFrame(fd_);
  if (!got.ok()) return false;
  *response = std::move(*got);
  return true;
}

std::vector<Sample> RunLoad(int port, RequestPlan* plan, int clients,
                            double seconds) {
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(clients));
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample>& out = per_client[static_cast<size_t>(c)];
      try {
        Connection conn(port);
        while (std::chrono::steady_clock::now() < until) {
          Request req = plan->Next();
          Sample s;
          s.key = req.key;
          const crashsim::Stopwatch timer;
          s.transport_ok = conn.Call(req.payload, &s.response);
          s.latency_ms = timer.ElapsedMillis();
          out.push_back(std::move(s));
          if (!out.back().transport_ok) break;
        }
      } catch (const std::exception&) {
        out.push_back(Sample{});  // connect failed: one transport failure
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> all;
  for (std::vector<Sample>& v : per_client) {
    for (Sample& s : v) all.push_back(std::move(s));
  }
  return all;
}

}  // namespace perfbench
