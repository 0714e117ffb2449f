// Package testkit consolidates the network-stack boot/teardown
// boilerplate the server, client and cluster tests share: an engine
// behind a reduxd-shaped server on a loopback listener, a gateway pool
// over backends, and a pooled client — each wired to t.Cleanup so a
// failing test still drains its listeners, connections and engines in
// the right order (cleanups run LIFO, so build stacks bottom-up and the
// client closes before the gateway, the gateway before the backends).
//
// All helpers are -race safe: teardown joins every goroutine it started
// (Serve loops, engine workers) before returning.
package testkit

import (
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/server"
	"repro/internal/trace"
)

// shutdownTimeout bounds one component's graceful drain in teardown.
const shutdownTimeout = 10 * time.Second

// Daemon is one booted engine + server stack, the reduxd shape.
type Daemon struct {
	// Eng is the daemon's engine, owned by the stack (closed by Close).
	Eng *engine.Engine
	// Srv is the wire-protocol front end over Eng.
	Srv *server.Server
	// Addr is the daemon's dial address.
	Addr string

	t       testing.TB
	done    chan error
	closed  bool
	unclean bool
}

// ExpectUncleanServe marks the daemon's listener as externally killed (a
// failure-injection test cut it): Close then accepts any Serve error,
// where it normally requires server.ErrServerClosed.
func (d *Daemon) ExpectUncleanServe() { d.unclean = true }

// StartDaemon boots an engine and a server on a random loopback port.
// Zero-value configs get the small test defaults (2 workers, 4 procs).
// Teardown is registered with t.Cleanup; call Close earlier to take the
// daemon down mid-test (e.g. to exercise reconnects).
func StartDaemon(t testing.TB, ecfg engine.Config, scfg server.Config) *Daemon {
	t.Helper()
	return StartDaemonAt(t, "127.0.0.1:0", ecfg, scfg)
}

// StartDaemonAt is StartDaemon on an explicit listen address — how a
// restart-on-the-same-port scenario boots its second daemon.
func StartDaemonAt(t testing.TB, addr string, ecfg engine.Config, scfg server.Config) *Daemon {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return StartDaemonOn(t, ln, ecfg, scfg)
}

// StartDaemonOn is StartDaemon over a caller-built listener — how a
// failure-injection test wraps the listener to cut live sockets.
func StartDaemonOn(t testing.TB, ln net.Listener, ecfg engine.Config, scfg server.Config) *Daemon {
	t.Helper()
	if ecfg.Workers == 0 {
		ecfg.Workers = 2
	}
	if ecfg.Platform.Procs == 0 {
		ecfg.Platform = platform.Default(4)
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	d := &Daemon{
		Eng:  eng,
		Srv:  server.New(eng, scfg),
		Addr: ln.Addr().String(),
		t:    t,
		done: make(chan error, 1),
	}
	go func() { d.done <- d.Srv.Serve(ln) }()
	t.Cleanup(d.Close)
	return d
}

// Close drains the daemon: server shutdown, serve loop joined, engine
// closed. It is idempotent, so tests may call it mid-run and the
// registered cleanup becomes a no-op.
func (d *Daemon) Close() {
	if d.closed {
		return
	}
	d.closed = true
	if err := d.Srv.Shutdown(shutdownTimeout); err != nil {
		d.t.Errorf("testkit: daemon shutdown: %v", err)
	}
	if err := <-d.done; err != server.ErrServerClosed && !d.unclean {
		d.t.Errorf("testkit: daemon Serve returned %v, want ErrServerClosed", err)
	}
	d.Eng.Close()
}

// Gateway is a booted cluster pool behind a wire-protocol front end,
// the reduxgw shape.
type Gateway struct {
	// Pool is the gateway's backend pool, owned by the stack.
	Pool *cluster.Pool
	// Srv is the wire-protocol front end over Pool.
	Srv *server.Server
	// Addr is the gateway's dial address.
	Addr string

	t      testing.TB
	done   chan error
	closed bool
}

// StartGateway boots a pattern-routing gateway over the given backend
// addresses on a random loopback port, teardown via t.Cleanup. Start the
// backends first (with StartDaemon) so the LIFO cleanup order drains the
// gateway before them.
func StartGateway(t testing.TB, ccfg cluster.Config, scfg server.Config, backends ...string) *Gateway {
	t.Helper()
	ccfg.Backends = backends
	pool, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	g := &Gateway{
		Pool: pool,
		Srv:  server.NewWithDispatcher(pool, scfg),
		Addr: ln.Addr().String(),
		t:    t,
		done: make(chan error, 1),
	}
	go func() { g.done <- g.Srv.Serve(ln) }()
	t.Cleanup(g.Close)
	return g
}

// Close drains the gateway front end, joins its serve loop and closes
// the pool. Idempotent, like Daemon.Close.
func (g *Gateway) Close() {
	if g.closed {
		return
	}
	g.closed = true
	if err := g.Srv.Shutdown(shutdownTimeout); err != nil {
		g.t.Errorf("testkit: gateway shutdown: %v", err)
	}
	if err := <-g.done; err != server.ErrServerClosed {
		g.t.Errorf("testkit: gateway Serve returned %v, want ErrServerClosed", err)
	}
	g.Pool.Close()
}

// DialPool connects a pooled pipelining client to addr and registers its
// Close with t.Cleanup (safe next to an explicit mid-test Close — the
// client's Close is idempotent).
func DialPool(t testing.TB, addr string, ccfg client.Config) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// StartSession opens a streaming session over cl and registers its Close
// with t.Cleanup (harmless next to an explicit close, or when the server
// evicted the session mid-test — Session.Close is a no-op both times).
// The returned result is the initial reduction at generation 1.
func StartSession(t testing.TB, cl *client.Client, l *trace.Loop) (*client.Session, engine.Result) {
	t.Helper()
	sess, res, err := cl.OpenSession(l)
	if err != nil {
		t.Fatalf("testkit: open session: %v", err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess, res
}
