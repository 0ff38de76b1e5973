# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make check` locally is a green
# pipeline modulo the network-installed tools (staticcheck, govulncheck).

GO ?= go

.PHONY: build test race lint fmt vet perfbench check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# oblint: the project-invariant analyzers (internal/lint). It loads
# through the stdlib source importer, so it needs no tool installation —
# but also cannot run as a `go vet -vettool`; invoke it as a command.
lint:
	$(GO) run ./cmd/oblint ./...

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# The benchmark is a nested module, so the root ./... never reaches it:
# vet and test it on its own, which also catches a compile break against
# the internal packages it imports.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: build vet lint test perfbench

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
