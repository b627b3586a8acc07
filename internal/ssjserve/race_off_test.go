//go:build !race

package ssjserve

const raceEnabled = false
