package wire

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// Servers is a set of HTTP servers with one lifecycle: Listen binds and
// serves each, Shutdown drains and joins them all. The zero value is
// ready to use.
type Servers struct {
	mu   sync.Mutex
	list []*http.Server
	fail chan error // first Serve failure; buffered so no server blocks on it
	wg   sync.WaitGroup
}

// Listen binds addr ("127.0.0.1:0" for a fresh loopback port), serves h
// on it in the background and returns the base URL. A bind failure is
// returned here, not discovered later.
func (s *Servers) Listen(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.mu.Lock()
	if s.fail == nil {
		s.fail = make(chan error, 1)
	}
	s.list = append(s.list, srv)
	fail := s.fail
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			select {
			case fail <- err:
			default:
			}
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// Shutdown first stops the owners of outbound connections into these
// servers (a gateway, a sensor manager: stopFirst), so their idle pooled
// connections close instead of being waited on — http.Server.Shutdown
// sits out five seconds on a connection that was dialed and never used —
// then drains every server until ctx ends, closes whatever is still open,
// and joins the serve goroutines.
func (s *Servers) Shutdown(ctx context.Context, stopFirst ...func()) error {
	for _, stop := range stopFirst {
		stop()
	}
	s.mu.Lock()
	list := s.list
	s.list = nil
	s.mu.Unlock()
	var errs []error
	for _, srv := range list {
		if err := srv.Shutdown(ctx); err != nil {
			errs = append(errs, err, srv.Close())
		}
	}
	s.wg.Wait()
	return errors.Join(errs...)
}

// Wait is a main's tail: block until ctx ends, SIGINT or SIGTERM arrives,
// or a server fails, then Shutdown within five seconds.
func (s *Servers) Wait(ctx context.Context, stopFirst ...func()) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	s.mu.Lock()
	fail := s.fail
	s.mu.Unlock()
	var err error
	select {
	case err = <-fail:
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	return errors.Join(err, s.Shutdown(shutCtx, stopFirst...))
}
