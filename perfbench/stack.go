package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"cagmres/internal/cluster"
)

// stack is the served path under test, in this process: a loopback HTTP
// listener in front of a cluster.Router, which fronts two in-process
// cluster.LocalNode backends (each 1 pooled context × 3 simulated M2090
// GPUs, the node defaults), each running its own sched and server.
type stack struct {
	nodes  []*cluster.LocalNode
	router *cluster.Router
	srv    *http.Server
	served chan error // Serve's return value, once it has exited
	url    string
	client *http.Client
	// trace, when set, receives the router and node-handler spans.
	trace atomic.Pointer[tracer]
}

const nodeCount = 2

func newStack() (*stack, error) {
	s := &stack{}
	var backends []*cluster.Backend
	for i := 0; i < nodeCount; i++ {
		n := cluster.NewLocalNode(cluster.LocalNodeConfig{Name: fmt.Sprintf("node%d", i)})
		s.nodes = append(s.nodes, n)
		backends = append(backends, cluster.NewLocalBackend(n.Name, s.nodeHandler(n)))
	}
	s.router = cluster.New(cluster.Config{Backends: backends})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.drainNodes()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.routerHandler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
	return s, nil
}

// close stops the listener, waits for its goroutine and drains the nodes.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if derr := s.drainNodes(); err == nil {
		err = derr
	}
	return err
}

func (s *stack) drainNodes() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	for _, n := range s.nodes {
		if derr := n.Drain(ctx); derr != nil && err == nil {
			err = fmt.Errorf("drain %s: %w", n.Name, derr)
		}
	}
	return err
}

// routerHandler times Router.ServeHTTP when tracing is on.
func (s *stack) routerHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.trace.Load()
		if tr == nil {
			s.router.ServeHTTP(w, r)
			return
		}
		id := tr.begin("router", requestID(r), true)
		s.router.ServeHTTP(w, r)
		tr.end(id)
	})
}

// nodeHandler times a node's server handler and counts the bytes it
// reads and writes when tracing is on.
func (s *stack) nodeHandler(n *cluster.LocalNode) http.Handler {
	name := "node." + n.Name
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.trace.Load()
		if tr == nil {
			n.Server.ServeHTTP(w, r)
			return
		}
		id := tr.begin(name, requestID(r), false)
		cw := &countingWriter{ResponseWriter: w}
		n.Server.ServeHTTP(cw, r)
		tr.endNode(id, r.ContentLength, cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// counters are the cumulative router and scheduler tallies the traced
// run differences over its window.
type counters struct {
	solves, reroutes   uint64
	dispatched, leases uint64
}

func (s *stack) counters() counters {
	var c counters
	c.solves, c.reroutes, _ = s.router.Counts()
	for _, n := range s.nodes {
		sn := n.Sched.Snapshot()
		c.dispatched += sn.Dispatched
		c.leases += sn.Leases
	}
	return c
}
