// The stubs in stubs.go are only type-checked by the analyzer tests;
// this file lets the compiler accept their missing bodies.
