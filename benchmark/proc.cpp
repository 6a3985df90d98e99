#include "proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "svc/client_conn.hpp"

namespace chameleon::bench {

namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

Child::Child(const std::string& exe, const std::vector<std::string>& args,
             const std::filesystem::path& log)
    : log_(log) {
  // Everything the child touches between fork and exec is built here:
  // after fork only async-signal-safe calls are allowed.
  std::vector<std::string> strings;
  strings.push_back(exe);
  strings.insert(strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log.string());
  const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::signal(SIGPIPE, SIG_DFL);  // ignored by the parent; exec keeps that
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (null_fd >= 0) ::close(null_fd);
  if (pid_ < 0) throw std::runtime_error("fork failed for " + exe);
}

Child::~Child() {
  if (pid_ > 0 && exit_code_ < 0) {
    ::kill(pid_, SIGKILL);
    reap(true);
  }
}

int Child::reap(bool block) {
  if (exit_code_ >= 0) return exit_code_;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
  if (r == pid_) {
    exit_code_ = WIFEXITED(status)     ? WEXITSTATUS(status)
                 : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                       : 255;
  }
  return exit_code_;
}

bool Child::running() { return reap(false) < 0; }

int Child::stop(Nanos grace) {
  if (!running()) return exit_code_;
  ::kill(pid_, SIGTERM);
  const Nanos deadline = now_ns() + grace;
  while (running() && now_ns() < deadline) sleep_ms(2);
  if (running()) {
    ::kill(pid_, SIGKILL);
    reap(true);
  }
  return exit_code_;
}

double Child::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::string Child::log_tail() const {
  std::ifstream in(log_);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  constexpr std::size_t kTail = 2000;
  return text.size() > kTail ? text.substr(text.size() - kTail) : text;
}

std::uint16_t await_port(const std::filesystem::path& port_file, Child& child,
                         Nanos timeout) {
  const Nanos deadline = now_ns() + timeout;
  while (now_ns() < deadline) {
    std::ifstream in(port_file);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      const unsigned long port = std::stoul(text);
      if (port > 0 && port < 65536) return static_cast<std::uint16_t>(port);
    }
    if (!child.running()) {
      throw std::runtime_error("child exited before listening:\n" +
                               child.log_tail());
    }
    sleep_ms(1);
  }
  throw std::runtime_error("timed out waiting for " + port_file.string());
}

void await_serving(std::uint16_t port, Nanos timeout) {
  svc::ClientConfig config;
  config.port = port;
  config.default_io_timeout = kSecond;
  const Nanos deadline = now_ns() + timeout;
  std::unique_ptr<svc::ClientConn> conn;
  while (now_ns() < deadline) {
    try {
      if (!conn || !conn->connected()) {
        conn = std::make_unique<svc::ClientConn>(config);
        conn->connect();
      }
      const svc::Frame health = conn->call(svc::Op::kHealth, {});
      const std::string body(health.payload.begin(), health.payload.end());
      if (body.find("\"serving\":true") != std::string::npos) return;
    } catch (const std::exception&) {
      conn.reset();
    }
    sleep_ms(1);
  }
  throw std::runtime_error("port " + std::to_string(port) +
                           " did not report serving in time");
}

}  // namespace chameleon::bench
