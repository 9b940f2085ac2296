/* cypspawn OUT ERR TIMEOUT_S -- PROGRAM ARGS...
 *
 * Runs one child with stdout to OUT and stderr to ERR and prints
 * "<wall_ns> <maxrss_kb> <exit_code> <cpu_ns>" on its own stdout, where
 * cpu_ns is the child's user + system time. A child still
 * running after TIMEOUT_S seconds is killed with SIGKILL and reaped.
 *
 * Linux folds the spawning process's memory high-water mark into the
 * child's ru_maxrss at exec, so a large measuring parent inflates every
 * child's reading. This launcher is a small C program that spawns with
 * posix_spawn and reads the child's own mark from wait4, so the figure
 * is the child's peak (floored at this launcher's ~1 MB). The exit code
 * is the child's, or 128 + signal number when a signal killed it. */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>

extern char** environ;

static volatile sig_atomic_t child = 0;

static void onAlarm(int sig) {
  (void)sig;
  if (child > 0) kill(child, SIGKILL);
}

static long long nowNs(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

int main(int argc, char** argv) {
  if (argc < 6 || strcmp(argv[4], "--") != 0) {
    fprintf(stderr, "usage: cypspawn OUT ERR TIMEOUT_S -- PROGRAM ARGS...\n");
    return 2;
  }
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_handler = onAlarm; /* no SA_RESTART: wait4 returns EINTR */
  sigaction(SIGALRM, &sa, NULL);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, argv[1],
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, 2, argv[2],
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const long long t0 = nowNs();
  pid_t pid;
  const int err = posix_spawnp(&pid, argv[5], &fa, NULL, argv + 5, environ);
  posix_spawn_file_actions_destroy(&fa);
  if (err != 0) {
    fprintf(stderr, "cypspawn: cannot start %s: %s\n", argv[5], strerror(err));
    return 2;
  }
  child = pid;
  alarm((unsigned)atoi(argv[3]));
  int status = 0;
  struct rusage ru;
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      perror("cypspawn: wait4");
      kill(pid, SIGKILL);
      return 2;
    }
  }
  alarm(0);
  const long long wall = nowNs() - t0;
  const int code = WIFEXITED(status)     ? WEXITSTATUS(status)
                   : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                         : 255;
  const long long cpu =
      ((long long)ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000000LL +
      ((long long)ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1000LL;
  printf("%lld %ld %d %lld\n", wall, ru.ru_maxrss, code, cpu);
  return 0;
}
