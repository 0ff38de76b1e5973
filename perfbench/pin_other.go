//go:build !linux

package main

import "errors"

// pinThread is not supported off Linux; the run goes on unpinned.
func pinThread(int) error { return errors.New("thread pinning needs Linux") }
