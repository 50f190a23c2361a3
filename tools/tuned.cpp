// tuned — the persistent autotuning daemon and its client.
//
//   tuned serve [--store=DIR] [--socket=PATH] [--workers=N]
//               [--queue-depth=N] [--submit-wait-ms=MS]
//               [--session-jobs=N] [--no-warm-start] [--warm-seeds=N]
//     Serves newline-delimited JSON requests (service/protocol.hpp).
//     Default transport is stdin/stdout (one response line per request
//     line); with --socket it listens on a Unix domain socket and
//     serves each connection on its own thread, which also runs that
//     connection's computations; a closed connection's thread is
//     joined at the next accept. On shutdown (stdin EOF, SIGINT or
//     SIGTERM) a one-line JSON stats summary — request, coalescing,
//     store hit-rate and latency counters — is printed to stderr.
//
//   tuned client --socket=PATH
//     Pumps stdin request lines to a serving daemon and prints the
//     response lines.
//
//   tuned once --request='<json>'   (or one request line on stdin)
//     Computes a single request in-process with a direct
//     tuner::Session — no admission gate, no store — and prints the
//     response line. Exits 0 on an ok response, 1 on an error
//     response. The CI smoke job byte-compares this against daemon
//     output.
//
//   tuned pipeline --file=FILE [--device=NAME] [--delta=X]
//                  [--enum='<json>'] [--id=ID]
//     Reads a pipeline IR document (pipeline/pipeline.hpp), wraps it
//     in a `pipeline` service request and computes it in-process —
//     the printed response line is byte-identical to serving the same
//     request through a daemon.
//
//   tuned devices [--json]
//     Lists the registered device descriptors (name, kind, capability
//     summary); --json dumps the full registry JSON, which re-imports
//     byte-identically via --devices.
//
//   tuned index --store=DIR [--json]
//     Lists the warm-start similarity index a daemon derives from a
//     result store directory (service/index.hpp): one line per
//     seedable stored result, or with --json the count and entries.
//
// Every mode accepts --devices=FILE to import additional descriptors
// ({"devices":[...]}, the exact format `tuned devices --json` emits)
// into the process registry before serving/computing.
#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <list>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/cli.hpp"
#include "device/registry.hpp"
#include "service/core.hpp"
#include "service/index.hpp"
#include "service/protocol.hpp"
#include "tuner/wire.hpp"

namespace {

using namespace repro;  // NOLINT

volatile std::sig_atomic_t g_stop = 0;
int g_listen_fd = -1;

void on_signal(int) {
  g_stop = 1;
  if (g_listen_fd >= 0) {
    // Unblock accept(); serving connections finish their line.
    ::shutdown(g_listen_fd, SHUT_RDWR);
    ::close(g_listen_fd);
    g_listen_fd = -1;
  }
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " serve|client|once|pipeline|devices|index [options]\n"
            << "  serve    [--store=DIR] [--socket=PATH] [--workers=N]\n"
            << "           [--queue-depth=N] [--submit-wait-ms=MS]\n"
            << "           [--session-jobs=N] [--no-warm-start]\n"
            << "           [--warm-seeds=N]\n"
            << "  client   --socket=PATH\n"
            << "  once     [--request='<json>']\n"
            << "  pipeline --file=FILE [--device=NAME] [--delta=X]\n"
            << "           [--enum='<json>'] [--id=ID]\n"
            << "  devices  [--json]\n"
            << "  index    --store=DIR [--json]\n"
            << "every mode also accepts --devices=FILE (registry import)\n";
  return 2;
}

// --devices=FILE: import descriptors into the process registry before
// anything consults it. Malformed input (SL524) or duplicate names
// (SL523) are fatal — serving against half a registry is worse than
// not starting.
bool import_devices(const CliArgs& args) {
  const std::optional<std::string> path = args.get("devices");
  if (!path) return true;
  std::ifstream in(*path);
  if (!in) {
    std::cerr << "error: cannot read --devices file: " << *path << "\n";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  analysis::DiagnosticEngine diags;
  if (!device::registry().load(text.str(), &diags)) {
    std::cerr << analysis::render_human(diags.diagnostics(), *path);
    return false;
  }
  return true;
}

bool check_options(const CliArgs& args,
                   const std::vector<std::string>& allowed) {
  bool ok = true;
  for (const std::string& k : args.keys()) {
    bool known = false;
    for (const std::string& a : allowed) known = known || k == a;
    if (!known) {
      std::cerr << "error: unknown option --" << k << "\n";
      ok = false;
    }
  }
  return ok;
}

// Incremental line reader over a socket fd.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool next(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) {
        if (!buf_.empty()) {  // final unterminated line
          line = std::move(buf_);
          buf_.clear();
          return true;
        }
        return false;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// The serve options, or nullopt after reporting a numeric flag that
// is malformed or out of range.
std::optional<service::ServiceOptions> serve_options(const CliArgs& args) {
  bool ok = true;
  const auto num = [&](const char* flag, long long def, long long lo,
                       long long hi) {
    const std::optional<long long> v = args.get_int_in(flag, def, lo, hi);
    if (!v) {
      std::cerr << "error: --" << flag << " takes an integer in [" << lo
                << ", " << hi << "], got '" << args.get_or(flag, "") << "'\n";
      ok = false;
    }
    return v.value_or(def);
  };
  service::ServiceOptions opt;
  opt.workers = static_cast<int>(num("workers", 2, 0, 1024));
  opt.queue_depth =
      static_cast<std::size_t>(num("queue-depth", 16, 0, 1 << 20));
  opt.submit_wait_ms = static_cast<int>(num("submit-wait-ms", 0, 0, 3'600'000));
  opt.session_jobs = static_cast<int>(num("session-jobs", 1, 0, 1024));
  opt.store_dir = args.get_or("store", "");
  opt.warm_start = !args.has_flag("no-warm-start");
  opt.warm_seed_limit = static_cast<std::size_t>(num("warm-seeds", 3, 0, 1024));
  if (!ok) return std::nullopt;
  return opt;
}

void serve_connection(service::ServiceCore& core, int fd) {
  LineReader reader(fd);
  std::string line;
  while (reader.next(line)) {
    if (line.empty()) continue;
    if (!write_all(fd, core.handle(line) + "\n")) break;
  }
  ::close(fd);
}

int serve_socket(service::ServiceCore& core, const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "error: socket(): " << std::strerror(errno) << "\n";
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    std::cerr << "error: socket path too long: " << path << "\n";
    ::close(fd);
    return 1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    std::cerr << "error: bind/listen " << path << ": "
              << std::strerror(errno) << "\n";
    ::close(fd);
    return 1;
  }
  g_listen_fd = fd;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // One thread per open connection: a thread whose client has gone is
  // joined at the next accept.
  struct Connection {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Connection> conns;
  while (g_stop == 0) {
    const int cfd = ::accept(fd, nullptr, nullptr);
    if (cfd < 0) break;  // listener closed by the signal handler
    conns.remove_if([](Connection& c) {
      if (!c.done.load()) return false;
      c.thread.join();
      return true;
    });
    Connection& c = conns.emplace_back();
    c.thread = std::thread([&core, &c, cfd] {
      serve_connection(core, cfd);
      c.done.store(true);
    });
  }
  for (Connection& c : conns) c.thread.join();
  if (g_listen_fd >= 0) {
    ::close(g_listen_fd);
    g_listen_fd = -1;
  }
  ::unlink(path.c_str());
  return 0;
}

int cmd_serve(const CliArgs& args) {
  if (!check_options(args, {"socket", "store", "workers", "queue-depth",
                            "submit-wait-ms", "session-jobs", "no-warm-start",
                            "warm-seeds", "devices"})) {
    return 2;
  }
  const std::optional<service::ServiceOptions> opt = serve_options(args);
  if (!opt) return 2;
  service::ServiceCore core(*opt);
  int rc = 0;
  if (const std::optional<std::string> sock = args.get("socket")) {
    rc = serve_socket(core, *sock);
  } else {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      std::cout << core.handle(line) << "\n" << std::flush;
    }
  }
  std::cerr << core.stats_json() << "\n";
  return rc;
}

int cmd_client(const CliArgs& args) {
  if (!check_options(args, {"socket", "devices"})) return 2;
  const std::optional<std::string> path = args.get("socket");
  if (!path) {
    std::cerr << "error: client requires --socket=PATH\n";
    return 2;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (fd < 0 || path->size() >= sizeof addr.sun_path) {
    std::cerr << "error: bad socket path\n";
    if (fd >= 0) ::close(fd);
    return 1;
  }
  std::memcpy(addr.sun_path, path->c_str(), path->size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    std::cerr << "error: connect " << *path << ": " << std::strerror(errno)
              << "\n";
    ::close(fd);
    return 1;
  }
  LineReader reader(fd);
  std::string line;
  std::string response;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (!write_all(fd, line + "\n") || !reader.next(response)) {
      std::cerr << "error: connection closed by daemon\n";
      ::close(fd);
      return 1;
    }
    std::cout << response << "\n" << std::flush;
  }
  ::close(fd);
  return 0;
}

int cmd_devices(const CliArgs& args) {
  if (!check_options(args, {"json", "devices"})) return 2;
  if (args.has_flag("json")) {
    std::cout << device::registry().dump() << "\n";
    return 0;
  }
  for (const device::Descriptor& d : device::registry().devices()) {
    std::cout << d.name() << "\n  " << d.summary() << "\n";
  }
  return 0;
}

// Shared by `once` and `pipeline`: compute one request line
// in-process via compute_payload — the same payload producer the
// daemon uses, so the printed response line is byte-identical to a
// served one.
int run_request_line(const std::string& line) {
  analysis::DiagnosticEngine diags;
  std::string id;
  const std::optional<service::Request> req =
      service::parse_request(line, diags, &id);
  if (!req) {
    std::cout << service::render_error(id, diags.diagnostics()) << "\n";
    return 1;
  }
  try {
    std::unique_ptr<tuner::Session> session;
    if (service::needs_session(*req)) {
      session = std::make_unique<tuner::Session>(
          *device::registry().find(req->device), req->def, *req->problem,
          tuner::SessionOptions{}.with_jobs(1));
    }
    const std::string payload =
        service::compute_payload(*req, session.get());
    std::cout << service::render_result(req->id, req->kind, payload) << "\n";
    return 0;
  } catch (const std::exception& e) {
    diags.error(analysis::Code::kSvcInternal,
                std::string("computation failed: ") + e.what());
    std::cout << service::render_error(req->id, diags.diagnostics()) << "\n";
    return 1;
  }
}

int cmd_once(const CliArgs& args) {
  if (!check_options(args, {"request", "devices"})) return 2;
  std::string line = args.get_or("request", "");
  if (line.empty() && !std::getline(std::cin, line)) {
    std::cerr << "error: once needs --request='<json>' or a request line "
                 "on stdin\n";
    return 2;
  }
  return run_request_line(line);
}

// `tuned pipeline --file=FILE`: read a pipeline IR document
// (pipeline/pipeline.hpp), wrap it in a service request envelope and
// compute it in-process. The response line is byte-identical to
// serving the same request through a daemon.
int cmd_pipeline(const CliArgs& args) {
  if (!check_options(args,
                     {"file", "device", "delta", "enum", "id", "devices"})) {
    return 2;
  }
  const std::optional<std::string> file = args.get("file");
  if (!file) {
    std::cerr << "error: pipeline requires --file=FILE\n";
    return 2;
  }
  std::ifstream in(*file);
  if (!in) {
    std::cerr << "error: cannot read pipeline file: " << *file << "\n";
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string err;
  const std::optional<json::Value> doc = json::parse(text.str(), &err);
  if (!doc) {
    std::cerr << "error: " << *file << ": invalid JSON: " << err << "\n";
    return 1;
  }

  json::Value req = json::Value::object();
  req.set("v", service::kProtocolVersion);
  req.set("id", args.get_or("id", "cli"));
  req.set("kind", std::string("pipeline"));
  if (const std::optional<std::string> dev = args.get("device")) {
    req.set("device", *dev);
  }
  req.set("pipeline", *doc);
  if (args.get("delta")) {
    req.set("delta", args.get_double_or("delta", 0.10));
  }
  if (const std::optional<std::string> en = args.get("enum")) {
    const std::optional<json::Value> e = json::parse(*en, &err);
    if (!e) {
      std::cerr << "error: --enum: invalid JSON: " << err << "\n";
      return 2;
    }
    req.set("enum", *e);
  }
  return run_request_line(req.dump());
}

int cmd_index(const CliArgs& args) {
  if (!check_options(args, {"store", "json", "devices"})) return 2;
  const std::optional<std::string> dir = args.get("store");
  if (!dir) {
    std::cerr << "error: index requires --store=DIR\n";
    return 2;
  }
  service::SimilarityIndex index(*dir);
  if (!index.rebuild()) {
    std::cerr << "error: cannot scan store directory " << *dir << "\n";
    return 1;
  }
  const std::vector<service::IndexEntry> entries = index.entries();

  if (args.has_flag("json")) {
    json::Writer w;
    w.begin_object().key("store").value(*dir);
    w.key("count").value(entries.size()).key("entries").begin_array();
    for (const service::IndexEntry& e : entries) {
      w.begin_object().key("key").value(e.key).key("kind").value(e.kind);
      w.key("device").value(e.device);
      tuner::wire::write_stencil(w, e.stencil_name, e.stencil_text);
      tuner::wire::write(w.key("problem"), e.problem);
      tuner::wire::write(w.key("tile"), e.tile);
      tuner::wire::write(w.key("threads"), e.threads);
      tuner::wire::write(w.key("variant"), e.variant);
      w.key("texec").value(e.texec).end_object();
    }
    std::cout << w.end_array().end_object().str() << "\n";
    return 0;
  }

  std::cout << *dir << ": " << entries.size() << " entries\n";
  for (const service::IndexEntry& e : entries) {
    std::cout << "  " << e.device << "  "
              << (!e.stencil_name.empty() ? e.stencil_name : "<inline dsl>")
              << "  S=";
    for (int i = 0; i < e.problem.dim; ++i) {
      if (i > 0) std::cout << "x";
      std::cout << e.problem.S[static_cast<std::size_t>(i)];
    }
    json::Writer tile;
    json::Writer threads;
    tuner::wire::write(tile, e.tile);
    tuner::wire::write(threads, e.threads);
    std::cout << " T=" << e.problem.T << "  tile=" << tile.str();
    std::cout << " threads=" << threads.str() << " texec=" << e.texec;
    std::cout << "  [" << e.kind << "]\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string mode = argv[1];
  const CliArgs args(argc - 1, argv + 1, {"json", "no-warm-start"});
  if (!import_devices(args)) return 2;
  if (mode == "serve") return cmd_serve(args);
  if (mode == "client") return cmd_client(args);
  if (mode == "once") return cmd_once(args);
  if (mode == "pipeline") return cmd_pipeline(args);
  if (mode == "devices") return cmd_devices(args);
  if (mode == "index") return cmd_index(args);
  return usage(argv[0]);
}
