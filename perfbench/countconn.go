package main

import (
	"net"
	"sync/atomic"
)

// byteCounter totals the bytes crossing one hop, per direction, as seen
// by the server side of that hop: in is what the server read (requests),
// out is what it wrote (responses).
type byteCounter struct {
	in, out atomic.Uint64
}

// countingListener wraps every accepted connection so its reads and
// writes are added to one byteCounter. The served stack never sees a
// different byte stream, only a wrapper around its own connections.
type countingListener struct {
	net.Listener
	n *byteCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *byteCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.in.Add(uint64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.out.Add(uint64(k))
	return k, err
}
