package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// stackConfig shapes one served stack.
type stackConfig struct {
	gateway bool
	procs   int
	// ringSize > 0 records every job's stage timeline (TraceSlow < 0)
	// into rings of that size on every tier; 0 keeps the server default
	// (only jobs slower than 10ms are kept).
	ringSize int
}

// tier is one server with its listener and, on a backend, its engine.
type tier struct {
	eng  *engine.Engine
	srv  *server.Server
	done chan error
}

// stack is the real serving stack, built in this process through the
// public constructors: engine.New and server.New for each backend,
// cluster.New and server.NewWithDispatcher for the gateway, and
// client.Dial for the client. Every listener is a loopback listener the
// benchmark owns, wrapped to count bytes per hop.
type stack struct {
	front    tier   // the tier the client dials
	backends []tier // the tiers that own engines (front itself when direct)
	pool     *cluster.Pool
	cl       *client.Client

	frontBytes, backendBytes byteCounter
}

func serverConfig(ringSize int) server.Config {
	// Admission limits sit far above anything one benchmark client can
	// hold in flight, so a transient stall queues work instead of
	// answering BUSY: the benchmark measures the serving path, not the
	// admission policy.
	cfg := server.Config{MaxInflightPerConn: 1 << 12, MaxInflightGlobal: 1 << 14}
	if ringSize > 0 {
		cfg.TraceSlow = -1
		cfg.TraceRingSize = ringSize
	}
	return cfg
}

func serve(srv *server.Server, n *byteCounter) (tier, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return tier{}, "", err
	}
	t := tier{srv: srv, done: make(chan error, 1)}
	go func() { t.done <- srv.Serve(countingListener{Listener: ln, n: n}) }()
	return t, ln.Addr().String(), nil
}

func startStack(cfg stackConfig) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	nBackends := 1
	if cfg.gateway {
		nBackends = 2
	}
	var addrs []string
	for i := 0; i < nBackends; i++ {
		eng, err := engine.New(engine.Config{Workers: cfg.procs, Platform: core.DefaultPlatform(cfg.procs)})
		if err != nil {
			return st, fmt.Errorf("engine: %w", err)
		}
		counter := &st.backendBytes
		if !cfg.gateway {
			counter = &st.frontBytes
		}
		t, addr, err := serve(server.New(eng, serverConfig(cfg.ringSize)), counter)
		t.eng = eng
		st.backends = append(st.backends, t)
		if err != nil {
			return st, fmt.Errorf("backend listen: %w", err)
		}
		addrs = append(addrs, addr)
	}
	front := addrs[0]
	if cfg.gateway {
		st.pool, err = cluster.New(cluster.Config{Backends: addrs, Conns: cfg.procs})
		if err != nil {
			return st, fmt.Errorf("cluster: %w", err)
		}
		st.front, front, err = serve(server.NewWithDispatcher(st.pool, serverConfig(cfg.ringSize)), &st.frontBytes)
		if err != nil {
			return st, fmt.Errorf("gateway listen: %w", err)
		}
	} else {
		st.front = st.backends[0]
	}
	st.cl, err = client.Dial(front, client.Config{Conns: cfg.procs})
	if err != nil {
		return st, fmt.Errorf("dial: %w", err)
	}
	// Connect every pooled connection now, so no preamble or HELLO
	// lands inside a measured phase.
	for i := 0; i < cfg.procs; i++ {
		if _, err := st.cl.Hello(); err != nil {
			return st, fmt.Errorf("hello: %w", err)
		}
	}
	return st, nil
}

// close tears the stack down front to back and waits for every accept
// loop to return.
func (st *stack) close() {
	if st.cl != nil {
		st.cl.Close()
	}
	if st.pool != nil && st.front.srv != nil {
		st.front.srv.Shutdown(10 * time.Second)
		<-st.front.done
	}
	if st.pool != nil {
		st.pool.Close()
	}
	for _, b := range st.backends {
		if b.srv != nil {
			b.srv.Shutdown(10 * time.Second)
			if b.done != nil {
				<-b.done
			}
		}
		if b.eng != nil {
			b.eng.Close()
		}
	}
}

// snapshot is every counter and histogram the layers export, taken at
// one instant; phases are measured as the difference of two.
type snapshot struct {
	eng         engine.Stats // merged over the backends
	front       server.Stats
	frontStages []obs.StageSummary
	pool        cluster.PoolStats

	frontIn, frontOut, backendIn, backendOut uint64
}

func (st *stack) snapshot() snapshot {
	var s snapshot
	for _, b := range st.backends {
		s.eng.Merge(b.eng.Stats())
	}
	s.front = st.front.srv.Stats()
	s.frontStages = st.front.srv.StageStats()
	if st.pool != nil {
		s.pool = st.pool.PoolStats()
	}
	s.frontIn, s.frontOut = st.frontBytes.in.Load(), st.frontBytes.out.Load()
	s.backendIn, s.backendOut = st.backendBytes.in.Load(), st.backendBytes.out.Load()
	return s
}

// traces snapshots the front tier's trace ring (newest first) and,
// behind a gateway, the backends' rings by trace ID.
func (st *stack) traces() (front []obs.JobTrace, back map[uint64]obs.JobTrace) {
	front = st.front.srv.Traces()
	if st.pool == nil {
		return front, nil
	}
	back = make(map[uint64]obs.JobTrace)
	for _, b := range st.backends {
		for _, t := range b.srv.Traces() {
			back[t.TraceID] = t
		}
	}
	return front, back
}
