package libtas

import (
	"time"
)

// Ready describes one readiness notification from a Poller, the epoll
// analogue over TAS context queues: which connection, and what it is
// ready for.
type Ready struct {
	Conn     *Conn
	Readable bool // bytes available in the receive buffer (or EOF)
	Writable bool // transmit-buffer space available
	Closed   bool // peer closed
}

// Poller multiplexes readiness across the connections of one context —
// the paper's epoll() over context RX queues (§3.1 Figure 1). Like the
// context itself, a Poller is single-goroutine.
type Poller struct {
	ctx   *Context
	conns []*Conn

	// lastTxFree remembers transmit-space observations so Writable
	// edges fire only when space transitions from exhausted.
	wantWrite map[*Conn]bool
}

// NewPoller creates a poller on the context.
func (c *Context) NewPoller() *Poller {
	return &Poller{ctx: c, wantWrite: make(map[*Conn]bool)}
}

// Add registers a connection for readiness notifications. The
// connection must belong to the poller's context.
func (p *Poller) Add(cn *Conn) {
	if cn.ctx != p.ctx {
		panic("libtas: poller and connection belong to different contexts")
	}
	p.conns = append(p.conns, cn)
}

// Remove unregisters a connection.
func (p *Poller) Remove(cn *Conn) {
	for i, c := range p.conns {
		if c == cn {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			return
		}
	}
}

// MarkWriteInterest requests a Writable notification for a connection
// whose Send would currently block.
func (p *Poller) MarkWriteInterest(cn *Conn) { p.wantWrite[cn] = true }

// poll scans registered connections for readiness.
func (p *Poller) poll(out []Ready) int {
	p.ctx.dispatch()
	n := 0
	for _, cn := range p.conns {
		if n == len(out) {
			break
		}
		var r Ready
		r.Conn = cn
		if cn.flow != nil && cn.flow.RxBuf.Used() > 0 {
			r.Readable = true
		}
		if cn.peerClosed.Load() {
			r.Closed = true
			r.Readable = true // unblock readers so they observe EOF
		}
		if p.wantWrite[cn] && cn.flow != nil && cn.flow.TxBuf.Free() > 0 {
			r.Writable = true
			delete(p.wantWrite, cn)
		}
		if r.Readable || r.Writable || r.Closed {
			out[n] = r
			n++
		}
	}
	return n
}

// Wait blocks until at least one registered connection is ready (or the
// timeout elapses; 0 = forever), filling out and returning the count.
func (p *Poller) Wait(out []Ready, timeout time.Duration) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		if n := p.poll(out); n > 0 {
			return n, nil
		}
		ch := p.ctx.fp.Sleep()
		if n := p.poll(out); n > 0 {
			p.ctx.fp.Awake(ch)
			return n, nil
		}
		ok := sleepOn(ch, deadline)
		p.ctx.fp.Awake(ch)
		if !ok {
			return 0, ErrTimeout
		}
	}
}
