package main

// The spawned sidqserve process and the benchmark's two client
// connections.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// conn is one client connection: an http.Client whose transport keeps
// at most one TCP connection open, so requests sent through it are
// serialized on the wire in the order they are issued.
type conn struct {
	*http.Client
	tr *http.Transport
}

func newConn() conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return conn{Client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr}
}

// reset drops the idle connection, e.g. after the server was killed.
func (c conn) reset() { c.tr.CloseIdleConnections() }

// live holds every server started and not yet reaped, so that a
// signal to the benchmark can stop them before it exits.
var live struct {
	sync.Mutex
	m map[*server]bool
}

// killLive kills and reaps every live server.
func killLive() {
	live.Lock()
	var all []*server
	for s := range live.m {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// server is a running sidqserve child.
type server struct {
	bin  string
	args []string // flags besides -addr
	log  *os.File
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startServer launches bin with args on a free port and returns once
// /v1/readyz answers 200, along with the time from spawn to ready.
// Probes go through c, one of the benchmark's two connections.
//
// The server's output passes through this process on its way to
// logFile, and probing starts at the log line that says the server is
// listening. The wait is woken by that line, not by a timer: the Go
// runtime rounds a sub-millisecond sleep up to a millisecond when it
// has nothing else to run, which would add up to a millisecond to a
// set-up of about five.
func startServer(bin string, args []string, logFile *os.File, c conn) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	full := append([]string{"-addr", addr, "-quiet", "-drain-linger", "1ms", "-grace", "10s"}, args...)
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, full...)
	cmd.Stdout = pw
	cmd.Stderr = pw
	s := &server{bin: bin, args: args, log: logFile, cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	start := time.Now()
	err = cmd.Start()
	pw.Close() // the child holds its own copy
	if err != nil {
		pr.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	live.Lock()
	if live.m == nil {
		live.m = map[*server]bool{}
	}
	live.m[s] = true
	live.Unlock()
	listening := make(chan struct{})
	logged := make(chan struct{})
	go func() {
		copyLog(pr, logFile, listening)
		pr.Close()
		close(logged)
	}()
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries no information
		<-logged
		live.Lock()
		delete(live.m, s)
		live.Unlock()
		close(s.done)
	}()
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	select {
	case <-listening:
	case <-s.done:
		return nil, 0, fmt.Errorf("sidqserve exited before it was ready (log: %s)", logFile.Name())
	case <-deadline.C:
		s.kill()
		return nil, 0, errors.New("sidqserve not listening after 60s")
	}
	for {
		resp, err := c.Get(s.base + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("sidqserve exited before it was ready (log: %s)", logFile.Name())
		case <-deadline.C:
			s.kill()
			return nil, 0, errors.New("sidqserve not ready after 60s")
		default:
		}
		// The log line goes out as the listener starts; yield, not
		// sleep, until the listener is up.
		runtime.Gosched()
	}
}

// copyLog copies the server's output to w line by line and closes
// listening after the line that says the server is listening.
func copyLog(r io.Reader, w io.Writer, listening chan<- struct{}) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Bytes()
		_, _ = w.Write(append(line, '\n'))
		if listening != nil && bytes.Contains(line, []byte("sidqserve: listening on ")) {
			close(listening)
			listening = nil
		}
	}
	_, _ = io.Copy(w, r) // the rest of a line too long for the scanner
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// kill sends SIGKILL and waits for the process to be reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-s.done
}

// stop asks for a graceful shutdown and waits for it, falling back to
// SIGKILL after 20s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.kill()
	}
}

// freePort reserves an ephemeral port and releases it for the child.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// doRequest sends one request and returns the status and full body.
func doRequest(c conn, method, url string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "text/csv")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}
