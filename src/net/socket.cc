#include "net/socket.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hh"

namespace marvel::net
{

std::string
Endpoint::str() const
{
    if (isUnix)
        return "unix:" + path;
    return strfmt("%s:%u", host.c_str(), port);
}

Endpoint
parseEndpoint(const std::string &spec)
{
    Endpoint ep;
    if (spec.rfind("unix:", 0) == 0) {
        ep.isUnix = true;
        ep.path = spec.substr(5);
        if (ep.path.empty())
            fatal("net: unix endpoint needs a path: '%s'",
                  spec.c_str());
        if (ep.path.size() >= sizeof(sockaddr_un{}.sun_path))
            fatal("net: unix socket path too long (%zu bytes): '%s'",
                  ep.path.size(), ep.path.c_str());
        return ep;
    }
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= spec.size())
        fatal("net: malformed endpoint '%s' (want unix:/path or "
              "host:port)", spec.c_str());
    ep.host = spec.substr(0, colon);
    char *end = nullptr;
    const unsigned long port =
        std::strtoul(spec.c_str() + colon + 1, &end, 10);
    if (!end || *end != '\0' || port > 65535)
        fatal("net: bad port in endpoint '%s'", spec.c_str());
    ep.port = static_cast<u16>(port);
    return ep;
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        fatal("net: cannot make fd %d non-blocking: %s", fd,
              std::strerror(errno));
}

int
listenOn(const Endpoint &endpoint)
{
    int fd = -1;
    if (endpoint.isUnix) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fatal("net: socket(AF_UNIX): %s", std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, endpoint.path.c_str(),
                     sizeof(addr.sun_path) - 1);
        // A previous daemon's socket file would make bind fail with
        // EADDRINUSE even though nobody is listening — but blindly
        // unlinking would steal the path from a daemon that IS
        // listening. Probe first: only a refused/dead socket is
        // stale and safe to remove.
        if (::access(endpoint.path.c_str(), F_OK) == 0) {
            const int probe = connectTo(endpoint);
            if (probe >= 0) {
                ::close(probe);
                ::close(fd);
                fatal("net: %s: another daemon is already "
                      "listening on this socket",
                      endpoint.str().c_str());
            }
            ::unlink(endpoint.path.c_str());
        }
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            fatal("net: bind(%s): %s", endpoint.str().c_str(),
                  std::strerror(errno));
    } else {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            fatal("net: socket(AF_INET): %s", std::strerror(errno));
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(endpoint.port);
        if (endpoint.host.empty() || endpoint.host == "*" ||
            endpoint.host == "0.0.0.0") {
            addr.sin_addr.s_addr = htonl(INADDR_ANY);
        } else {
            addrinfo hints{};
            hints.ai_family = AF_INET;
            hints.ai_socktype = SOCK_STREAM;
            addrinfo *res = nullptr;
            const int rc = ::getaddrinfo(endpoint.host.c_str(),
                                         nullptr, &hints, &res);
            if (rc != 0 || !res)
                fatal("net: cannot resolve '%s': %s",
                      endpoint.host.c_str(), ::gai_strerror(rc));
            addr.sin_addr =
                reinterpret_cast<sockaddr_in *>(res->ai_addr)
                    ->sin_addr;
            ::freeaddrinfo(res);
        }
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            fatal("net: bind(%s): %s", endpoint.str().c_str(),
                  std::strerror(errno));
    }
    if (::listen(fd, 64) < 0)
        fatal("net: listen(%s): %s", endpoint.str().c_str(),
              std::strerror(errno));
    setNonBlocking(fd);
    return fd;
}

u16
boundPort(int listenFd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd,
                      reinterpret_cast<sockaddr *>(&addr), &len) < 0)
        fatal("net: getsockname: %s", std::strerror(errno));
    return ntohs(addr.sin_port);
}

int
connectTo(const Endpoint &endpoint)
{
    if (endpoint.isUnix) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, endpoint.path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) < 0) {
            const int saved = errno;
            ::close(fd);
            errno = saved;
            return -1;
        }
        return fd;
    }
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const std::string portStr = strfmt("%u", endpoint.port);
    if (::getaddrinfo(endpoint.host.c_str(), portStr.c_str(),
                      &hints, &res) != 0 ||
        !res) {
        errno = EHOSTUNREACH;
        return -1;
    }
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        const int saved = errno;
        ::close(fd);
        fd = -1;
        errno = saved;
    }
    ::freeaddrinfo(res);
    if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
    }
    return fd;
}

int
acceptOn(int listenFd)
{
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0)
        return -1;
    setNonBlocking(fd);
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    const char *p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
        const ssize_t n =
            ::send(fd, p, left, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    return true;
}

long
recvSome(int fd, std::string &out, bool wait)
{
    char buf[64 * 1024];
    for (;;) {
        const ssize_t n =
            ::recv(fd, buf, sizeof(buf), wait ? 0 : MSG_DONTWAIT);
        if (n < 0 && errno == EINTR)
            continue;
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        return static_cast<long>(n);
    }
}

} // namespace marvel::net
