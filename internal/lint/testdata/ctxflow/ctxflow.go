// Package p distills the serving-path context contracts; the harness
// checks it under the import path repro/internal/core.
package p

import "context"

// Fabricate creates a context out of thin air.
func Fabricate() context.Context {
	return context.Background() // want `context.Background fabricates a context`
}

// NilDefault mirrors ExecuteContext's nil-context default idiom.
func NilDefault(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx
}

// BadOrder takes its context late.
func BadOrder(n int, ctx context.Context) { // want `context.Context must be the first parameter`
	_ = n
	_ = ctx
}

// Blocks receives without any reachable context.
func Blocks(ch chan int) int {
	return <-ch // want `exported Blocks blocks`
}

// BlocksWithCtx threads a context through the blocking operation.
func BlocksWithCtx(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// Config mirrors exec.Config: a context carried one level down.
type Config struct {
	Ctx context.Context
}

// RunWith carries its context in the config struct.
func RunWith(cfg Config, ch chan int) int {
	_ = cfg
	return <-ch
}

// Close blocks to drain in-flight work; termination-protocol names are
// exempt.
func Close(done chan struct{}) {
	<-done
}

// waiter is unexported: the blocking rule covers the exported surface.
func waiter(ch chan int) int {
	return <-ch
}

// Allowed fabricates with an audited waiver.
func Allowed() context.Context {
	//skewlint:allow ctxflow — corpus: audited fabrication
	return context.Background()
}

var _ = waiter
