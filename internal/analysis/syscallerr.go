package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Syscallerr flags raw syscall call sites whose error handling does
// not classify the transient errnos the non-blocking hot paths hinge
// on. A bare `if err != nil` after syscall.Read treats both EINTR (a
// signal landed; retry) and EAGAIN (no data; wait for readiness) as
// fatal, which tears down healthy connections under exactly the load
// the reproduction is supposed to measure.
var Syscallerr = &Analyzer{
	Name: "syscallerr",
	Doc: "check that raw syscall.Read/Write/Accept4/EpollWait/Sendfile/Sendto call sites " +
		"(and sendto(2) spelled as syscall.Syscall*(SYS_SENDTO, ...)) " +
		"classify EINTR and EAGAIN instead of treating every error as fatal, " +
		"and that syscall.Open/Fstat/Pread call sites classify EINTR; " +
		"EINTR classification may be delegated by wrapping the call in a " +
		"closure passed to a retryEINTR helper; sysfault seam call sites " +
		"(which absorb EINTR internally) must still classify EAGAIN",
	Run: runSyscallerr,
}

// syscallErrTargets maps the audited syscall functions to the errnos
// their call sites must classify. EpollWait cannot return EAGAIN, so
// only EINTR is demanded there; nor can the file calls the docroot
// issues on raw descriptors — open(2), fstat(2) and pread(2) of a
// regular file never would-block, but a signal interrupts them like
// anything else, and os.File's retry loops are no longer underneath.
var syscallErrTargets = map[string]struct{ eintr, eagain bool }{
	"Read":      {true, true},
	"Write":     {true, true},
	"Accept4":   {true, true},
	"EpollWait": {true, false},
	"Sendfile":  {true, true},
	"Sendto":    {true, true},
	"Open":      {true, false},
	"Fstat":     {true, false},
	"Pread":     {true, false},
}

// rawSyscallFuncs are the syscall-package trampolines through which
// sendto(2) is reached when its byte count is wanted (syscall.Sendto
// drops it): a call whose first argument is syscall.SYS_SENDTO is
// audited as Sendto.
var rawSyscallFuncs = map[string]bool{
	"Syscall": true, "Syscall6": true, "RawSyscall": true, "RawSyscall6": true,
}

// sysfaultPkgPath is the fault-injection seam every hot-path syscall is
// routed through (see internal/sysfault). Its wrappers absorb EINTR in
// their own retry loops, so call sites owe only the EAGAIN
// classification; EpollWait/Socket/Connect/Close via the seam can
// surface neither transient errno and are not audited here.
const sysfaultPkgPath = "repro/internal/sysfault"

// seamErrTargets are the sysfault wrappers whose callers must still
// classify EAGAIN — the would-block path passes through the seam raw.
var seamErrTargets = map[string]bool{
	"Read":      true,
	"Write":     true,
	"WriteMore": true,
	"Accept4":   true,
	"Sendfile":  true,
}

func runSyscallerr(pass *Pass) error {
	for _, fd := range funcDecls(pass) {
		checkSyscallErrFunc(pass, fd)
	}
	return nil
}

func checkSyscallErrFunc(pass *Pass, fn *ast.FuncDecl) {
	// Which errnos does this function classify anywhere? A mention of
	// syscall.EINTR / syscall.EAGAIN counts when it appears where
	// errors are discriminated: an ==/!= comparison, a switch case, or
	// an errors.Is argument.
	classified := map[string]bool{}
	note := func(expr ast.Expr) {
		for _, errno := range []string{"EINTR", "EAGAIN"} {
			if isPkgObject(pass.Info, expr, "syscall", errno) {
				classified[errno] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				note(n.X)
				note(n.Y)
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				note(e)
			}
		case *ast.CallExpr:
			if pkgFuncName(pass.Info, n, "errors") == "Is" && len(n.Args) == 2 {
				note(n.Args[1])
			}
		}
		return true
	})

	walkStack(fn.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if name := pkgFuncName(pass.Info, call, sysfaultPkgPath); seamErrTargets[name] {
			// A seam call site: the wrapper already owns EINTR, but
			// EAGAIN still reaches the caller and must be classified.
			if errResultDiscarded(call, stack) || classified["EAGAIN"] {
				return
			}
			pass.Reportf(call.Pos(),
				"sysfault.%s error is not classified for EAGAIN (the seam absorbs EINTR but passes would-block through)", name)
			return
		}
		name := pkgFuncName(pass.Info, call, "syscall")
		if rawSyscallFuncs[name] && len(call.Args) > 0 &&
			isPkgObject(pass.Info, ast.Unparen(call.Args[0]), "syscall", "SYS_SENDTO") {
			name = "Sendto"
		}
		need, ok := syscallErrTargets[name]
		if !ok {
			return
		}
		wrapper := name
		if name == "Sendto" {
			// sendto(2) is the write site's MSG_MORE spelling.
			wrapper = "WriteMore"
		}
		if pass.Pkg.Name() == "sysfault" && fn.Name.Name == wrapper {
			// The seam wrapper itself: sysfault.Read's raw syscall.Read
			// is the blessed home of the bare call — its retry loop
			// absorbs EINTR and its contract is to hand EAGAIN to the
			// caller unclassified. Only the wrapper that owns the
			// syscall is exempt; any other bare syscall in the package
			// still fails.
			return
		}
		if errResultDiscarded(call, stack) {
			// `_, _ = syscall.Write(...)` is a deliberate decision to
			// ignore the outcome (e.g. the wakeup pipe, where EAGAIN
			// means a wakeup is already pending), not bare handling.
			return
		}
		if need.eintr && !classified["EINTR"] && !inRetryEINTR(call, stack) {
			pass.Reportf(call.Pos(),
				"syscall.%s error is not classified for EINTR (compare against syscall.EINTR or wrap the call in retryEINTR)", name)
		}
		if need.eagain && !classified["EAGAIN"] {
			pass.Reportf(call.Pos(),
				"syscall.%s error is not classified for EAGAIN (a non-blocking fd returns it on every would-block)", name)
		}
	})
}

// errResultDiscarded reports whether the call's error result (by
// convention the last result) is assigned to the blank identifier.
func errResultDiscarded(call *ast.CallExpr, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		as, ok := stack[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		if len(as.Rhs) != 1 || ast.Unparen(as.Rhs[0]) != ast.Expr(call) {
			return false // call feeds the assignment indirectly; be strict
		}
		last, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
		return ok && last.Name == "_"
	}
	return false
}

// inRetryEINTR reports whether the call sits inside a function literal
// passed as an argument to a function or method named retryEINTR — the
// one blessed EINTR-retry pattern (see internal/reactor).
func inRetryEINTR(call *ast.CallExpr, stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok {
			continue
		}
		outer, ok := stack[i-1].(*ast.CallExpr)
		if !ok {
			continue
		}
		if !strings.EqualFold(calleeName(outer), "retryEINTR") {
			continue
		}
		for _, a := range outer.Args {
			if ast.Unparen(a) == ast.Expr(lit) {
				return true
			}
		}
	}
	return false
}
