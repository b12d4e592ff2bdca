#include "http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>

namespace perfbench {

namespace {

/// Closes the socket on every return path.
class Socket {
 public:
  Socket() : fd_(socket(AF_INET, SOCK_STREAM, 0)) {}
  ~Socket() {
    if (fd_ >= 0) close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string Lower(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(c));
  return text;
}

}  // namespace

HttpReply HttpRequest(int port, const std::string& method,
                      const std::string& path, const std::string& body,
                      int timeout_ms) {
  HttpReply reply;
  Socket socket;
  if (socket.fd() < 0) return reply;
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(socket.fd(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(socket.fd(), reinterpret_cast<sockaddr*>(&address),
              sizeof(address)) != 0) {
    return reply;
  }
  std::string request = method + " " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  if (!SendAll(socket.fd(), request)) return reply;

  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = recv(socket.fd(), buf, sizeof(buf), 0);
    if (n < 0) return reply;  // Timed out or reset: no response.
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  const size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos || response.rfind("HTTP/1.", 0) != 0) {
    return reply;
  }
  const size_t space = response.find(' ');
  reply.status = std::atoi(response.c_str() + space + 1);
  size_t line = response.find("\r\n") + 2;
  while (line < head_end) {
    const size_t next = response.find("\r\n", line);
    const std::string header = response.substr(line, next - line);
    const size_t colon = header.find(':');
    if (colon != std::string::npos &&
        Lower(header.substr(0, colon)) == "content-type") {
      size_t value = colon + 1;
      while (value < header.size() && header[value] == ' ') ++value;
      reply.content_type = header.substr(value);
    }
    line = next + 2;
  }
  reply.body = response.substr(head_end + 4);
  return reply;
}

}  // namespace perfbench
