//go:build !linux

package main

import "errors"

func pinToOneCPU() (int, error) { return -1, errors.New("CPU pinning needs Linux") }
