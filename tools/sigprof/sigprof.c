/*
 * sigprof: a flat CPU-time profiler for any dynamically linked program,
 * loaded with LD_PRELOAD. It samples on ITIMER_PROF once per millisecond
 * of process CPU time (every thread's), records the interrupted program
 * counter and the name of the thread it interrupted, and at exit writes
 * a copy of /proc/self/maps followed by the samples to
 * $SIGPROF_OUT.<pid> (default: sigprof.<pid> in the working directory).
 * symbolize.py turns that file into function and line rows.
 *
 *   gcc -O2 -Wall -Werror -shared -fPIC -o sigprof.so sigprof.c
 *   LD_PRELOAD=$PWD/sigprof.so ./program args...
 *   python3 symbolize.py sigprof.<pid>
 */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_US 1000
/* over an hour of one busy CPU at a 250 Hz tick; later samples are counted, not kept */
#define MAX_SAMPLES (1 << 20)

struct sample {
    unsigned long pc;
    char thread[16]; /* PR_GET_NAME writes at most 16 bytes, NUL included */
};

/* zero-filled bss: pages are touched only as samples land in them */
static struct sample samples[MAX_SAMPLES];
static unsigned long taken;

static unsigned long interrupted_pc(const ucontext_t *uc)
{
#if defined(__x86_64__)
    return (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    return (unsigned long)uc->uc_mcontext.pc;
#else
#error "sigprof: name this architecture's program counter in interrupted_pc"
#endif
}

/* Async-signal-safe: one atomic add, one store and one system call. */
static void on_sigprof(int sig, siginfo_t *info, void *uc)
{
    (void)sig;
    (void)info;
    int saved = errno;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) {
        samples[i].pc = interrupted_pc(uc);
        prctl(PR_GET_NAME, (unsigned long)samples[i].thread, 0, 0, 0);
    }
    errno = saved;
}

static void set_timer(long us)
{
    struct itimerval t = {{0, us}, {0, us}};
    setitimer(ITIMER_PROF, &t, NULL);
}

__attribute__((constructor)) static void sigprof_start(void)
{
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0) {
        perror("sigprof: sigaction");
        return;
    }
    set_timer(PERIOD_US);
}

__attribute__((destructor)) static void sigprof_stop(void)
{
    set_timer(0);
    unsigned long n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    const char *prefix = getenv("SIGPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "sigprof", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) {
        perror("sigprof: open output");
        return;
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    if (maps)
        fclose(maps);
    fprintf(out, "taken %lu kept %lu period_us %d\n", n,
            n < MAX_SAMPLES ? n : (unsigned long)MAX_SAMPLES, PERIOD_US);
    for (unsigned long i = 0; i < n && i < MAX_SAMPLES; i++) {
        /* a handler still in flight on another thread leaves pc 0 */
        if (samples[i].pc)
            fprintf(out, "pc %lx\t%.15s\n", samples[i].pc, samples[i].thread);
    }
    fclose(out);
}
