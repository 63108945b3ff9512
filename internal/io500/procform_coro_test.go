//go:build go1.23

package io500

// runAllocBudget is TestRunAllocBudget's budget with coroutine procs
// (go1.23 and later, des/switch_coro.go): 942 allocations measured
// (go1.24) once a restarted rank or drain worker kept its coroutine, plus
// 10%. It was 1,166 (1,055 measured) while each restart started a new
// iter.Pull coroutine.
const runAllocBudget = 1036
