//go:build !go1.23

package io500

// runAllocBudget is TestRunAllocBudget's budget with channel procs
// (before go1.23, des/switch_chan.go): 896 allocations measured, plus
// 10%. It was 1,166, one budget for both forms.
const runAllocBudget = 985
