#ifndef PERFBENCH_HTTP_H_
#define PERFBENCH_HTTP_H_

#include <string>

namespace perfbench {

/// One HTTP exchange as a client sees it. `status` is 0 when the request
/// never got a parsable response (refused, timed out, malformed).
struct HttpReply {
  int status = 0;
  std::string content_type;
  std::string body;
};

/// Blocking one-shot HTTP/1.0 request to 127.0.0.1:`port` on a fresh
/// connection, read until the server closes it (the service answers every
/// request with `Connection: close`). Unlike the program's own `HttpGet`
/// it also returns the Content-Type and can POST a body, which the
/// benchmark needs for admissions and its content-type checks.
HttpReply HttpRequest(int port, const std::string& method,
                      const std::string& path, const std::string& body,
                      int timeout_ms);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_H_
