package main

import (
	"net"
	"sync/atomic"
)

// wireCounter totals the bytes crossing every client connection of one
// deployment. out is what clients wrote (requests), in what they read
// (responses).
type wireCounter struct {
	out, in atomic.Int64
}

// countingConn counts the bytes a client connection reads and writes.
type countingConn struct {
	net.Conn
	w *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.out.Add(int64(n))
	return n, err
}

// dial is the dialer handed to rpcsvc.DialWith: a plain TCP dial whose
// connection is counted, including every redial.
func (w *wireCounter) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, w: w}, nil
}
