package fleet

import (
	"encoding/json"
	"net"
	"net/http"
	"net/rpc"
	"sync"

	"repro/internal/rpcsvc"
)

// service adapts the Router to the net/rpc "Decima" surface. It is a
// separate struct (rather than RPC-registering the Router itself) so only
// the three protocol methods are visible to net/rpc — the Router's admin
// methods would otherwise trip its method-suitability checks.
type service struct{ rt *Router }

// Open places a new session on the routing key's replica.
func (s *service) Open(req *rpcsvc.OpenRequest, resp *rpcsvc.OpenResponse) error {
	return s.rt.open(req, resp)
}

// Event forwards one session event to the session's replica.
func (s *service) Event(req *rpcsvc.EventRequest, resp *rpcsvc.EventResponse) error {
	return s.rt.event(req, resp)
}

// Close releases a session.
func (s *service) Close(req *rpcsvc.CloseRequest, resp *rpcsvc.CloseResponse) error {
	return s.rt.closeSession(req)
}

// Server is a listening fleet router speaking the rpcsvc session protocol.
// Existing clients (SessionScheduler) connect to it exactly
// as they would to a single decima-server.
type Server struct {
	rt   *Router
	lis  net.Listener
	rpcS *rpc.Server

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// ListenAndServe exposes the router's "Decima" RPC surface on addr. The
// router's lifecycle (Start/Stop) stays with the caller.
func ListenAndServe(addr string, rt *Router) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	rpcS := rpc.NewServer()
	if err := rpcS.RegisterName("Decima", &service{rt: rt}); err != nil {
		lis.Close()
		return nil, err
	}
	s := &Server{rt: rt, lis: lis, rpcS: rpcS, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.rpcS.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Addr returns the router's RPC listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Router returns the router this server fronts.
func (s *Server) Router() *Router { return s.rt }

// Close stops the listener and severs open client connections. It does not
// stop the Router — call Router.Stop separately.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

// NewAdminHandler returns the fleet observability/admin HTTP surface:
//
//	GET  /metrics  Prometheus text exposition of the router's fleet view
//	GET  /healthz  router liveness: "ok" with routable replicas, else "degraded"
//	GET  /fleet    replica topology as JSON (ids, addresses, pids, placement)
//	POST /drain    ?replica=ID — migrate the replica's sessions away
func NewAdminHandler(rt *Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rt.WriteProm(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if len(rt.routableIDs()) == 0 {
			status = "degraded"
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":   status,
			"replicas": rt.ring.Len(),
			"sessions": rt.Sessions(),
		})
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rt.Info())
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("replica")
		n, err := rt.DrainReplica(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"replica": id, "migrated": n})
	})
	return mux
}
